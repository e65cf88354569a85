"""Negative controls: a corruption per check that makes it fail, with the
failure it must give.  A check that no input can make fail certifies
nothing, so each row here drives one check id through its failing branch,
through the library and through ``cli.main`` (exit 1: a failed check, not a
crash).  The designated refusals follow: each input that a refusal names
must raise that error type with that message, word for word."""

import re

import numpy as np
import pytest

from cubicmotives import realization
from cubicmotives.cli import main
from cubicmotives.errors import ShadowViolation, StructureError
from cubicmotives.gradedring import VarietyData
from cubicmotives.linalg import qvec, scaled
from cubicmotives.motiveiso import (FourfoldData, SurfaceData, build_gamma_cubic_k3,
                                    random_cubic_k3_pair, verify_frobenius)
from cubicmotives.quadform import GroupAction, QuadSpace
from cubicmotives.realization import (RealizationConfig, RealizedClass, derive_P,
                                      diagonal_realized)


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


# --- designated refusals -------------------------------------------------------


def _cfg(*diagonal):
    return RealizationConfig.with_gram(np.diag(diagonal).astype(object))


def _flip(n, i):
    """The sign flip of coordinate i, as a group on diag(1, ..., 1) of rank n."""
    g = np.eye(n, dtype=int).astype(object)
    g[i, i] = -1
    return GroupAction.build(QuadSpace(np.eye(n, dtype=int).astype(object)), [g])


def _k3_certificate():
    return build_gamma_cubic_k3(*random_cubic_k3_pair(0))


def _transport(n_mats, n_targets):
    """The diagonal of a two-slot space, transported by identities."""
    space = _cfg(1, 1).space
    one = scaled(np.eye(space.size, dtype=int).astype(object))
    return diagonal_realized(space).transport((one,) * n_mats, (space,) * n_targets)


REFUSALS = {
    "anisotropic": (lambda: FourfoldData(_cfg(1, -1), (qvec([1, 1]),)), StructureError,
                    "algebraic basis must consist of anisotropic vectors"),
    "anisotropic-ns": (lambda: SurfaceData(VarietyData.k3(), QuadSpace(np.diag([2, -2])),
                                           (qvec([1, 1]),)),
                       StructureError, "Neron-Severi basis must consist of anisotropic vectors"),
    "orthogonal": (lambda: FourfoldData(_cfg(1, 1), (qvec([1, 0]), qvec([1, 1]))),
                   StructureError, "algebraic basis must be orthogonal"),
    "group-space": (lambda: FourfoldData(_cfg(1, 2), group=_flip(2, 0)), StructureError,
                    "group acts on a different space"),
    "group-fixes": (lambda: FourfoldData(_cfg(1, 1), (qvec([1, 0]),), _flip(2, 0)),
                    StructureError, "group must fix every algebraic class"),
    "frobenius-k3": (lambda: verify_frobenius(_k3_certificate()), StructureError,
                     "Frobenius verification applies to fourfold pairs"),
    "transport-mats": (lambda: _transport(1, 2), StructureError,
                       "need one transport matrix per slot"),
    "transport-targets": (lambda: _transport(2, 1), StructureError,
                          "need one transport matrix per slot"),
}


@pytest.mark.parametrize("row", REFUSALS)
def test_designated_refusals(row):
    call, error, message = REFUSALS[row]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
