"""Golden CLI outputs: the commands, the file format and the writer.

Run ``python tests/write_goldens.py`` (it takes no options) to rewrite
every ``tests/golden/*.txt`` from the current tree.  A change that moves
digits regenerates them, and the git diff of these files is the record of
what moved; `test_golden.py` replays the same commands and compares.

Each file opens with a ``# host:`` line naming the host that wrote it.
One section per command follows: ``$`` and the command line, the lines
the command writes to stdout, each stderr line prefixed ``! ``, and
``exit <code>`` when the code is not 0.  The ``verify`` sections are the
CSV of ``verify --suite all --trials 1000`` at seeds 0-9; the test
renders them from the reports of acceptance criterion 5, which runs the
same suites, instead of running them a second time.
"""

from __future__ import annotations

import contextlib
import io
import math
import platform
import re
import shlex
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))

from alphaharmonic import cli  # noqa: E402

# Off the host that wrote a file, a float may differ by this many ulps.
ULPS = 8

# The (r, alpha) grid of perfbench's bounds-table workload.
RADII = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.97,
         0.99, 0.995, 0.999)
ALPHAS = tuple((15 * k - 95) / 100.0 for k in range(40))
_EVAL2F1 = (
    (0.5, 0.5, 1.0, 0.5), (-0.5, 0.5, 1.0, 0.5), (2.0, 0.5, 0.3, 0.5),
    (1.5, -2.0, 3.0, 0.9), (3.5, -2.2, 1.1, 0.7), (-0.75, -0.75, 1.0, 0.999999),
    (0.25, 1.75, 2.0, 0.99), (10.0, 12.5, 4.0, 0.95), (-5.5, 0.25, 1.5, 0.95),
    (-3.0, 2.0, 1.5, 0.7), (0.25, 1.75, 2.000000001, 0.999), (0.499995, 0.499995, 1.0, 0.99998),
)
VERIFY_SEEDS = range(10)


def verify_command(seed: int) -> str:
    return f"verify --suite all --trials 1000 --seed {seed}"


COMMANDS = {
    "bounds": [f"bounds --id all --r {r!r} --alpha {a!r} --c 0.5"
               for a in ALPHAS for r in RADII],
    "figure1": ["figure1", "figure1 --format json"],
    "eval2f1": [f"eval2f1 --a {a!r} --b {b!r} --c {c!r} --x {x!r}" for a, b, c, x in _EVAL2F1],
    "solve": [f"solve --alpha {a!r} --boundary {name} --z-re {z.real!r} --z-im {z.imag!r}"
              for name in ("boundary_deg0.json", "boundary_deg2.json", "boundary_deg6.json")
              for a in (-0.9, 0.0, 1.5, 7.0) for z in (0j, 0.3 + 0.4j, -0.95 + 0.1j)],
    "verify": [verify_command(seed) for seed in VERIFY_SEEDS],
}


def host_fingerprint() -> str:
    """What decides the last bits of a float result here: the platform,
    libc, Python, numpy and the SIMD extensions numpy dispatches to."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    simd = " ".join(sorted(k for k, on in __cpu_features__.items() if on))
    return (f"{platform.system()} {platform.machine()}; {' '.join(platform.libc_ver())}; "
            f"Python {platform.python_version()}; numpy {np.__version__}; {simd}")


def run_command(command: str) -> list[str]:
    """The section lines of one CLI command, run in this process; an
    input file is named relative to the golden directory."""
    argv = [str(GOLDEN_DIR / a) if a.endswith(".json") else a for a in shlex.split(command)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = out.getvalue().splitlines() + ["! " + s for s in err.getvalue().splitlines()]
    return lines + [f"exit {code}"] if code else lines


def render_reports(reports) -> list[str]:
    """The section lines of ``verify`` for its reports, as the CLI writes them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(cli._report_rows(reports), "csv", "-")
    return out.getvalue().splitlines()


def format_file(sections: dict) -> str:
    lines = [f"# host: {host_fingerprint()}"]
    for command, body in sections.items():
        lines += [f"$ {command}", *body]
    return "\n".join(lines) + "\n"


def read_file(path: Path) -> tuple[str, dict]:
    """(host, {command: section lines}) of a golden file."""
    head, *rest = path.read_text(encoding="utf-8").splitlines()
    sections = {}
    for line in rest:
        if line.startswith("$ "):
            body = sections[line[2:]] = []
        else:
            body.append(line)
    return head.removeprefix("# host: "), sections


_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _close(want: str, got: str) -> bool:
    """The lines agree but for floats at most ULPS apart; integers and
    text must match exactly."""
    if _NUMBER.sub("#", want) != _NUMBER.sub("#", got):
        return False
    for w, g in zip(_NUMBER.findall(want), _NUMBER.findall(got)):
        if w == g:
            continue
        if not any(ch in w + g for ch in ".eE"):
            return False
        x, y = float(w), float(g)
        if not abs(x - y) <= ULPS * math.ulp(max(abs(x), abs(y))):
            return False
    return True


def moved(want: dict, got: dict, exact: bool) -> list[str]:
    """One entry per command whose output differs: its command line and
    each differing line, golden then new."""
    out = []
    for command in [*want, *(c for c in got if c not in want)]:
        w, g = want.get(command), got.get(command)
        if w is None or g is None:
            out.append(f"{command}: {'not in the golden file' if w is None else 'not run'}")
            continue
        diff = [f"  - {a}\n  + {b}" for a, b in zip(w, g)
                if a != b and (exact or not _close(a, b))]
        if len(w) != len(g):
            diff.append(f"  {len(w)} golden lines, {len(g)} new")
        if diff:
            out.append("\n".join([command, *diff]))
    return out


def main() -> None:
    for name, commands in COMMANDS.items():
        sections = {}
        for command in commands:
            sections[command] = run_command(command)
            if name == "verify" and sections[command][-1].startswith("exit"):
                raise SystemExit(f"{command} failed:\n" + "\n".join(sections[command]))
        (GOLDEN_DIR / f"{name}.txt").write_text(format_file(sections), encoding="utf-8")


if __name__ == "__main__":
    main()
