"""Re-record chosen golden report digests in test_golden.py.

    PYTHONPATH=src python tests/record_golden.py NAME [NAME ...]

Recomputes the sha256 of each named case in ``test_golden.CASES`` and
rewrites that one entry of ``GOLDEN`` in place; every other digest keeps
its recorded value. Only a change meant to move report bytes, such as a
bug fix listed in CHANGES.md, should re-record a digest.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from test_golden import CASES, GOLDEN  # noqa: E402


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        raise SystemExit(f"usage: record_golden.py NAME [NAME ...]; unknown cases: {unknown}")
    path = HERE / "test_golden.py"
    text = path.read_text()
    for name in names:
        digest = hashlib.sha256(CASES[name]().encode()).hexdigest()
        old = f'    "{name}": "{GOLDEN[name]}",\n'
        if text.count(old) != 1:
            raise SystemExit(f"cannot find the GOLDEN entry of {name}")
        text = text.replace(old, f'    "{name}": "{digest}",\n')
        print(f"{name}: {GOLDEN[name]} -> {digest}")
    path.write_text(text)


if __name__ == "__main__":
    main(sys.argv[1:])
