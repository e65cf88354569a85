"""Negative controls: a corruption per check that makes it fail, with the
failure it must give.  A check that no input can make fail certifies
nothing, so each row here drives one check id through its failing branch,
through the library and through ``cli.main`` (exit 1: a failed check, not a
crash)."""

import pytest

from cubicmotives import realization
from cubicmotives.cli import main
from cubicmotives.errors import ShadowViolation
from cubicmotives.realization import RealizationConfig, RealizedClass, derive_P


def _perturb_d12(monkeypatch):
    """``realization._diagonal`` with one entry added to the V x V block of
    D_12 on X^3, the first factor of the realized small diagonal; every other
    diagonal is left as it is."""
    real = realization._diagonal

    def diagonal(space, slots, n, deco_slot=None, deco=0):
        d = real(space, slots, n, deco_slot, deco)
        if (slots, n, deco_slot) != ((0, 1), 3, None):
            return d
        num, vv = dict(d._num), ("V", "V", ("h", 0))
        num[vv] = num[vv].copy()
        num[vv][0, 0] += 1
        return RealizedClass._of(d.spaces, num, d._den)

    monkeypatch.setattr(realization, "_diagonal", diagonal)


def test_mult_shadow_fails_on_a_perturbed_diagonal(monkeypatch, capsys):
    _perturb_d12(monkeypatch)
    with pytest.raises(ShadowViolation, match="^MCK shadow violated$"):
        derive_P(RealizationConfig.default())
    assert main(["derive-p"]) == 1
    out = capsys.readouterr().out
    assert "| `mult-shadow` |" in out and "**FAIL**" in out
    assert "- `mult-shadow` witness: MCK shadow violated" in out
    assert "**1 of 1 checks FAILED.**" in out  # the suite stops at the shadow
