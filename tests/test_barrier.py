"""The barrier Newton solve behind `tomography._solve`, through its helpers and stage constants: the one test
module that names them, and the one a solver replacing the barrier deletes or rewrites (test_tomography.py
tests the estimator's contract through `_solve`, `_estimate`, `reconstruct` and `simulate_dephased` alone)."""

import ast
import copy
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import belldyn.tomography as tomography
from belldyn.cli import main
from belldyn.dephasing import evolve_state
from belldyn.errors import NonConvergenceError
from belldyn.tomography import probabilities, reconstruct, simulate_counts

from conftest import random_density_matrix
from test_tomography import _same_bits, unphysical_records

#: the barrier's helpers, LAPACK aliases, trace vector and stage constants, which only this module names
BARRIER_INTERNALS = {"_barrier_solve", "_derivatives", "_curvature", "_line_search", "_factor",
                     "_cholesky", "_inv", "_lu_solve", "_umath_linalg", "_TRACE", "_BARRIER_STAGES", "_CENTRED",
                     "_FULL_STEP", "_PRE_CENTRED", "_TOLERANCE", "_MAX_STEPS", "_MAX_HALVINGS"}


def barrier_names(source):
    """(line, name) of each barrier internal that Python source names: as an identifier, an attribute, an
    imported module or name, a parameter or keyword, or a string (monkeypatch.setattr takes one)."""
    return [(node.lineno, word) for node in ast.walk(ast.parse(source))
            for field in ("id", "attr", "name", "module", "arg", "value")
            if isinstance(value := getattr(node, field, None), str)
            for word in value.split(".") if word in BARRIER_INTERNALS]


def test_barrier_names_finds_each_form_of_a_name():
    source = "import numpy.linalg._umath_linalg\nfrom m import _factor\nsetattr(t, '_MAX_STEPS', 3)\n_inv(t._TRACE)"
    found = {word for _, word in barrier_names(source)}
    assert found == {"_umath_linalg", "_factor", "_MAX_STEPS", "_TRACE", "_inv"}


def test_no_other_test_module_names_a_barrier_internal():
    # so that a solver replacing the barrier edits no test outside this module
    assert all(hasattr(tomography, name) for name in BARRIER_INTERNALS)
    here = Path(__file__)
    named = {path.name: barrier_names(path.read_text()) for path in here.parent.rglob("*.py") if path != here}
    assert {module: lines for module, lines in named.items() if lines} == {}


def test_curvature_matches_central_differences_of_the_newton_matrix():
    # along the central path H x' = tr(rho^-1 D), so H x'' = -(2 K x' + dH/ds x') with
    # dH/ds the derivative of the Newton matrix along x + s x'
    rng = np.random.default_rng(55)
    x = np.stack([probabilities(random_density_matrix(rng)) for _ in range(8)])
    freqs = rng.uniform(0.05, 0.5, size=(len(x), 16))
    t = rng.uniform(1e-4, 1e-1, size=len(x))

    def derivatives(point):
        factor = tomography._factor(point)
        return tomography._derivatives(freqs, t[:, None], factor, point)

    _, hess, log_det_grad, log_det_hess, c, ratio = derivatives(x)
    tangent = tomography._lu_solve(hess, log_det_grad, signature="dd->d")
    lowest = np.linalg.eigvalsh(tomography._matrices(x))[:, :1]
    h = 1e-4 * lowest / np.abs(tangent).max(axis=-1, keepdims=True)  # x +- h x' stays interior
    dhess = derivatives(x + h * tangent)[1] - derivatives(x - h * tangent)[1]
    third = (dhess @ tangent[..., None])[..., 0] / (2.0 * h)
    expected = -np.linalg.solve(hess, 2.0 * log_det_hess @ tangent[..., None] + third[..., None])[..., 0]
    curvature = 2.0 * tomography._curvature(ratio, t[:, None], x, hess, tangent, log_det_hess, c)  # of x'' / 2
    scale = np.abs(expected).max(axis=-1, keepdims=True)
    assert np.all(np.abs(curvature - expected) <= 1e-6 * scale)
    assert np.all(scale > 0.0)


def test_barrier_estimates_are_centred_to_the_final_tolerance():
    # the last stage's squared Newton decrement, from `_derivatives` and again from a gradient and
    # Newton matrix rebuilt here from np.linalg.eigh, U = V diag(w)^-1/2, instead of its Cholesky
    # factor: a wrong factor or inverse in `_derivatives` cannot pass by checking itself
    counts = np.stack([rec.counts for rec in unphysical_records()])
    x, _, steps = tomography._solve(counts)
    assert np.all(steps > 0)
    freqs = counts / counts.max(axis=-1, keepdims=True)  # the unit-peak frequencies `_solve` uses
    t = freqs.sum(axis=-1) * tomography._BARRIER_STAGES[-1]
    descent, hess, *_ = tomography._derivatives(freqs, t[:, None], tomography._factor(x), x)
    w, v = np.linalg.eigh(tomography._matrices(x))
    assert w.min() > 0.0
    u = v / np.sqrt(w)[:, None, :]
    dual = tomography._DUAL.reshape(16, 4, 4)  # rho = sum_k x_k D_k
    c = np.einsum("rai,kab,rbj->rkij", u.conj(), dual, u)  # C_k = U^H D_k U
    grad = 1.0 - freqs / x - t[:, None] * np.einsum("rkii->rk", c).real
    rebuilt = t[:, None, None] * np.einsum("rkij,rlji->rkl", c, c).real + np.einsum(
        "rk,kl->rkl", freqs / x ** 2, np.eye(16))
    for descent, hess in ((descent, hess), (-grad, rebuilt)):
        newton = np.linalg.solve(hess, descent[..., None])[..., 0]
        assert np.all((descent * newton).sum(axis=-1) <= tomography._CENTRED * t)


def stop_rule_rows():
    """Unit-peak frequencies of unphysical records, with the smallest eigenvalue of their linear
    inversion: near-pure states at 10^2-10^5 counts, then at 10^6-10^15 counts with three
    settings at 0-3 counts, where f_min / t falls below 1 in the last stage."""
    rng = np.random.default_rng(61)
    rows = []
    for big in [False] * 1400 + [True] * 400:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        mix = rng.uniform(0.0, 0.05)
        rho = (1.0 - mix) * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real + mix * np.eye(4) / 4.0
        if big:
            counts = np.round(10 ** rng.uniform(6, 15) * probabilities(rho))
            counts[rng.choice(16, 3, replace=False)] = rng.integers(0, 4, 3)
        else:
            counts = rng.poisson(10 ** rng.uniform(2, 5) * probabilities(rho)).astype(float)
        rows.append(counts / counts.max())
    freqs = np.stack(rows)
    lowest = np.linalg.eigvalsh(tomography._matrices(freqs))[:, 0]
    return freqs[lowest < 0.0], lowest[lowest < 0.0]


def test_barrier_solve_returns_centred_full_rank_estimates_after_its_last_newton_step():
    # a last-stage row returns x plus the Newton step it computed, once the decrement bound
    # guarantees that point is centred: over these 1,651 rows the worst reads 9.2e-9 t (7.6e-9 t
    # where f_min < 1e-6), and the bound loosened 4x gives 1.5e-7 t
    freqs, lowest = stop_rule_rows()
    t = freqs.sum(axis=-1) * tomography._BARRIER_STAGES[-1]
    smallest = np.where(freqs > 0.0, freqs, np.inf).min(axis=-1)
    assert len(freqs) >= 1000
    assert (smallest < t).sum() >= 100  # rows where min(1, f_min / t) binds
    optimum = tomography._barrier_solve(freqs, lowest)[0]
    assert np.linalg.eigvalsh(tomography._matrices(optimum))[:, 0].min() > 0.0
    factor = tomography._factor(optimum)
    descent, hess, *_ = tomography._derivatives(freqs, t[:, None], factor, optimum)
    newton = np.linalg.solve(hess, descent[..., None])[..., 0]
    assert np.all((descent * newton).sum(axis=-1) <= tomography._CENTRED * t)


def test_barrier_solve_raises_when_it_cannot_converge(monkeypatch):
    rec = simulate_counts(evolve_state(1.0, 1.0), 10**4, 0)
    monkeypatch.setattr(tomography, "_MAX_STEPS", 3)
    with pytest.raises(NonConvergenceError):
        reconstruct(rec)


@pytest.mark.parametrize("newton_matrix", [lambda hess: np.full_like(hess, math.nan), np.zeros_like],
                         ids=["nan", "singular"])
def test_a_newton_matrix_lapack_cannot_invert_ends_in_non_convergence(monkeypatch, capsys, newton_matrix):
    # the direct LAPACK call gives NaN rows for it instead of numpy's LinAlgError, which `main`
    # would not catch; the line search rejects every NaN trial, so the solve raises
    # NonConvergenceError, with no numpy warning and no NaN estimate
    derivatives = tomography._derivatives

    def broken(*args):
        descent, hess, *rest = derivatives(*args)
        return (descent, newton_matrix(hess), *rest)

    monkeypatch.setattr(tomography, "_derivatives", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError):
            reconstruct(simulate_counts(evolve_state(1.0, 1.0), 10**4, 0))
        assert main(["tomo-demo", "--kappa-a", "1", "--kappa-b", "1"]) == 2
    assert capsys.readouterr().err.startswith("belldyn: computation error: barrier line search")


def test_newton_step_lapack_calls_give_numpys_public_results_bit_for_bit(monkeypatch):
    # `_factor`, the Newton step and the spectra call numpy's private LAPACK gufuncs, skipping
    # the public wrappers' per-call cost: a numpy whose gufuncs stop matching np.linalg.cholesky,
    # np.linalg.inv, np.linalg.solve and np.linalg.eigvalsh fails here by name, not only through
    # the SHA-256 pins
    calls = {"_cholesky": [], "_inv": [], "_lu_solve": [], "_eigvalsh": []}

    def recording(name, gufunc):
        def call(*args, signature):  # copies: the line search writes accepted trials into its arrays
            result = gufunc(*args, signature=signature)
            calls[name].append(copy.deepcopy((args, result)))
            return result
        return call

    for name in calls:
        monkeypatch.setattr(tomography, name, recording(name, getattr(tomography, name)))
    records = unphysical_records()
    for rows in (1, 9):
        for made in calls.values():
            made.clear()
        tomography._estimate(np.stack([rec.counts for rec in records[:rows]]))
        # every row, first
        assert {len(made[0][0][0]) for made in calls.values()} == {rows}
        assert len(calls["_cholesky"]) > len(calls["_inv"]) >= 10  # a trial point per step, and halvings
        assert len(calls["_lu_solve"]) > len(calls["_inv"])  # a Newton step per step, and the predictor's
        assert len(calls["_eigvalsh"]) == 2  # of the linear inversions (`_solve`), then of the estimates
        for (matrices,), factor in calls["_cholesky"]:
            ok = np.isfinite(factor).all(axis=(1, 2))  # LAPACK factored these; the others are all NaN
            assert np.isnan(factor[~ok]).all()
            assert _same_bits(factor[ok], np.linalg.cholesky(matrices[ok]))
            for matrix in matrices[~ok]:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(matrix)
        for (factor,), inverse in calls["_inv"]:
            assert _same_bits(inverse, np.linalg.inv(factor))
        for (hess, rhs), solution in calls["_lu_solve"]:
            assert _same_bits(solution, np.linalg.solve(hess, rhs[..., None])[..., 0])
        for (matrices,), spectra in calls["_eigvalsh"]:
            assert _same_bits(spectra, np.linalg.eigvalsh(matrices))


def test_line_search_halves_rejected_steps_and_raises_past_its_limit(monkeypatch):
    # a solve factors its start and the first trial of every step but the last, so it
    # makes one `_factor` call per Newton step and one per halving: every record here
    # halves some step, so the mixed-batch test solves halved rows beside unhalved ones.
    # `_solve` counts one step per `_derivatives` call. The second-order predictor takes a
    # median of 22 factorizations (at most 29) here; with a last stage that stopped only
    # once centred, a first-order one took 32 (40)
    records = unphysical_records()
    steps, evaluations = [], []
    derivatives, factor = tomography._derivatives, tomography._factor

    def counting_steps(*args):
        steps[-1] += 1
        return derivatives(*args)

    def counting_evaluations(*args):
        evaluations[-1] += 1
        return factor(*args)

    monkeypatch.setattr(tomography, "_derivatives", counting_steps)
    monkeypatch.setattr(tomography, "_factor", counting_evaluations)
    for rec in records:
        steps.append(0)
        evaluations.append(0)
        solved = tomography._solve(rec.counts[None])[2]
        assert solved.tolist() == [steps[-1]] and evaluations[-1] > steps[-1]
    assert np.median(evaluations) <= 24
    assert max(evaluations) <= 31
    # records[1] halves no step more than once
    estimate = reconstruct(records[1])
    monkeypatch.setattr(tomography, "_MAX_HALVINGS", 1)
    assert np.array_equal(reconstruct(records[1]), estimate)
    monkeypatch.setattr(tomography, "_MAX_HALVINGS", 0)
    with pytest.raises(NonConvergenceError, match="line search"):
        reconstruct(records[1])
