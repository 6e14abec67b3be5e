"""CLI outputs against the goldens in tests/golden/ (see write_goldens.py).

On the host that wrote a file every line must match exactly; elsewhere
floats may differ by `write_goldens.ULPS` ulps.  A failure lists the
lines that moved, for up to 40 commands; if the move is intended, rerun
the writer and say why in CHANGES.md.
"""

import math

import pytest

import alphaharmonic.bounds as bounds_module
from write_goldens import (COMMANDS, GOLDEN_DIR, VERIFY_SEEDS, host_fingerprint, moved,
                           read_file, render_reports, run_command, verify_command)


def _check(name: str, got: dict) -> list[str]:
    host, want = read_file(GOLDEN_DIR / f"{name}.txt")
    return moved(want, got, exact=host == host_fingerprint())


def _report(found: list[str]) -> str:
    return f"{len(found)} commands moved:\n" + "\n".join(found[:40])


@pytest.mark.parametrize("name", [n for n in COMMANDS if n != "verify"])
def test_cli_outputs_match_goldens(name):
    found = _check(name, {c: run_command(c) for c in COMMANDS[name]})
    assert not found, _report(found)


def test_verify_reports_match_goldens(criterion5_reports):
    by_seed, _ = criterion5_reports
    found = _check("verify", {verify_command(s): render_reports(by_seed[s])
                              for s in VERIFY_SEEDS})
    assert not found, _report(found)


def test_one_ulp_in_schwarz_bound_is_caught(monkeypatch):
    # off the writing host the goldens only hold to a few ulps, so there the
    # planted change is compared exactly against this tree's own outputs
    commands = COMMANDS["bounds"][::7]  # every radius, every grid alpha
    host, want = read_file(GOLDEN_DIR / "bounds.txt")
    if host != host_fingerprint():
        want = {c: run_command(c) for c in commands}
    original = bounds_module.schwarz_bound
    monkeypatch.setattr(bounds_module, "schwarz_bound",
                        lambda r, alpha: math.nextafter(original(r, alpha), math.inf))
    got = {c: run_command(c) for c in commands}
    found = moved({c: want[c] for c in commands}, got, exact=True)
    assert len(found) == len(commands)
    for entry in found:
        changed = [line[4:].split(",")[0] for line in entry.splitlines() if line.startswith("  - ")]
        assert "SCHWARZ_2F1" in changed and set(changed) <= {"SCHWARZ_2F1", "SP_2F1", "L1_MEAN"}


def test_off_host_floats_hold_to_a_few_ulps():
    line = "SCHWARZ_2F1,0.5,1,,1.0625"
    near = "SCHWARZ_2F1,0.5,1,,1.0625000000000004"  # 2 ulps
    far = "SCHWARZ_2F1,0.5,1,,1.0625000000000044"
    assert moved({"c": [line]}, {"c": [near]}, exact=True)
    assert not moved({"c": [line]}, {"c": [near]}, exact=False)
    assert moved({"c": [line]}, {"c": [far]}, exact=False)
    assert moved({"c": ["n_checked,7"]}, {"c": ["n_checked,8"]}, exact=False)
