"""The sequential update algorithm (paper Figure 1).

One application of an ``m``-dimensional observation vector to the estimate
``(x⁻, C⁻)`` — an (iterated) extended Kalman filter measurement update,
with each arithmetic step routed through the instrumented kernels so its
operation category, FLOPs and time are recorded:

1. form the sparse Jacobian ``H`` (``vec``; O(m) — constraints are local),
2. ``C⁻Hᵗ`` and ``H C⁻Hᵗ`` (``d-s``; O(m·n)),
3. Cholesky factorization of ``S = H C⁻Hᵗ + R`` (``chol``; O(m³)),
4. gain ``K = C⁻Hᵗ S⁻¹`` by two triangular solves (``sys``; O(m²·n)),
5. state update ``x⁺ = x⁻ + K (z − h(x⁻))`` (``m-v``; O(m·n)),
6. covariance update ``C⁺ = C⁻ − K (C⁻Hᵗ)ᵗ`` (``m-m``; O(m·n²)),
7. miscellaneous O(n) vector operations (``vec``).

Steps 2-6 run inside a bounded retry loop: a failed factorization (a
near-singular innovation covariance, or an injected fault) escalates a
relative diagonal regularization of ``S`` geometrically —
``jitter · jitter_growth^k`` on retry ``k`` — instead of aborting the
whole solve.  Each retried batch contributes a structured
:class:`~repro.faults.RetryReport`; a batch that exhausts its attempts
raises :class:`~repro.errors.BatchUpdateError` so the solvers can
quarantine it and continue.  The posterior ``(x⁺, C⁺)`` is committed only
after an attempt fully succeeds, so a failed attempt never contaminates
the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.constraints.batch import ConstraintBatch, assemble_batch
from repro.core.state import StructureEstimate
from repro.errors import (
    BatchUpdateError,
    DimensionError,
    InjectedFaultError,
    NotPositiveDefiniteError,
)
from repro.faults.injector import FaultInjector, current_injector
from repro.faults.report import QuarantineRecord, RetryAttempt, RetryReport
from repro.linalg.cholesky import cholesky_factor, cholesky_solve
from repro.linalg.fast import (
    add_diagonal_inplace,
    complete_upper,
    gather_cht,
    spmm_support,
    symm,
    syrk_downdate,
    trsm_right,
)
from repro.linalg.counters import OpCategory
from repro.linalg.kernels import add_diagonal, gemm, gemv, outer_update, vec_add, vec_sub
from repro.linalg.triangular import solve_lower
from repro.linalg.workspace import get_workspace
from repro.util.validation import symmetrize

#: Valid values of :attr:`UpdateOptions.kernel_impl`.
KERNEL_IMPLS = ("fast", "reference", "vector")


@dataclass(frozen=True)
class AnnealSchedule:
    """Per-batch geometric variance-inflation schedule.

    The *Borrowing from Simulated Annealing* follow-on applies the
    paper's estimator with a temperature schedule over constraint
    application rather than over whole cycles: the first batches a node
    sees run with softened (inflated-variance) constraints, later ones
    tighten geometrically.  Batch ``k`` (0-based, counted per solver
    unit: per tree node in the hierarchical solvers, per cycle in the
    flat solver) runs at noise scale ``max(floor, start · decay^k)``.

    Counting per node keeps the schedule a pure function of
    ``(node, batch index)``: identical on every backend (bit-identity
    preserved) and identical between a warm dirty-path re-solve and a
    cold solve of the edited problem (warm ≡ cold preserved), unlike the
    per-cycle schedule of :func:`repro.core.convergence.annealing_schedule`,
    which sessions must reject.
    """

    start: float = 1.0
    decay: float = 1.0
    floor: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 1.0:
            raise DimensionError("anneal schedule start must be >= 1")
        if not 0.0 < self.decay <= 1.0:
            raise DimensionError("anneal schedule decay must be in (0, 1]")
        if self.floor < 1.0 or self.floor > self.start:
            raise DimensionError(
                "anneal schedule floor must satisfy 1 <= floor <= start"
            )

    def scale(self, step: int) -> float:
        """Noise scale for batch ``step`` (0-based)."""
        if step < 0:
            raise DimensionError("schedule step must be >= 0")
        return max(self.floor, self.start * self.decay**step)

    @staticmethod
    def parse(text: str) -> "AnnealSchedule":
        """``"start,decay[,floor]"`` → a schedule (CLI ``--batch-anneal``)."""
        parts = [float(v) for v in text.split(",")]
        if len(parts) == 2:
            return AnnealSchedule(parts[0], parts[1])
        if len(parts) == 3:
            return AnnealSchedule(parts[0], parts[1], parts[2])
        raise DimensionError(
            f"batch-anneal expects 'start,decay[,floor]', got {text!r}"
        )


@dataclass(frozen=True)
class UpdateOptions:
    """Tuning knobs for one batch update.

    Attributes
    ----------
    joseph:
        Use the Joseph-form covariance update
        ``C⁺ = (I−KH) C⁻ (I−KH)ᵗ + K R Kᵗ``, which preserves positive
        semi-definiteness at ~3× the cost of the standard form.  The
        standard form plus re-symmetrization (the paper's choice) is the
        default.
    local_iterations:
        Number of relinearization passes per batch (iterated EKF).  1
        reproduces the paper's procedure; >1 re-evaluates ``h`` and ``H``
        at the running posterior mean, improving strongly nonlinear steps.
    jitter:
        Base relative diagonal regularization added to ``S`` when its
        factorization fails; 0 disables the retry loop entirely (failures
        propagate immediately, the pre-robustness behaviour).
    max_retries:
        Upper bound on regularized retries per attempt sequence.  Retry
        ``k`` (1-based) uses ``jitter · jitter_growth^(k-1)``; when all
        retries fail the batch raises :class:`~repro.errors.BatchUpdateError`
        carrying its :class:`~repro.faults.RetryReport`.
    jitter_growth:
        Geometric escalation factor between consecutive retries.
    noise_scale:
        Multiplier applied to every measurement variance for this update.
        Values > 1 soften the constraints; the solvers' annealing schedules
        use this to avoid the frustrated local equilibria that tight
        nonlinear constraints can create (the analytical-procedure trap the
        paper combats with a conformational-search preprocessing step).
    kernel_impl:
        ``"fast"`` (default) runs steps 2-6 through the symmetry-aware,
        workspace-reusing kernels of :mod:`repro.linalg.fast` (symmetric
        ``C·Hᵗ``, one in-place triangular solve, rank-m ``syrk``
        downdate — see docs/performance.md); ``"vector"`` runs the same
        kernels but replaces the per-constraint step-1 assembly loop with
        the compile-once/evaluate-many planned assembler of
        :mod:`repro.constraints.plan` (type-grouped ``linearize_many``
        over a cached CSR structure); ``"reference"`` runs the original
        out-of-place kernels and reproduces pre-optimization results
        bitwise.  All tiers agree to high precision (property tested at
        rtol 1e-10 in tests/test_fast_kernels.py, three-way).
    schedule:
        Optional :class:`AnnealSchedule` applied per batch on top of
        ``noise_scale``: batch ``step`` runs at
        ``noise_scale · schedule.scale(step)``.  ``None`` (default)
        leaves every batch at ``noise_scale``.
    """

    joseph: bool = False
    local_iterations: int = 1
    jitter: float = 1e-9
    max_retries: int = 8
    jitter_growth: float = 10.0
    noise_scale: float = 1.0
    kernel_impl: str = "fast"
    schedule: AnnealSchedule | None = None


def apply_batch(
    estimate: StructureEstimate,
    batch: ConstraintBatch,
    atom_to_column: np.ndarray | None = None,
    options: UpdateOptions = UpdateOptions(),
    retry_log: list[RetryReport] | None = None,
    step: int = 0,
    consume_estimate: bool = False,
    half_stored: bool = False,
) -> StructureEstimate:
    """Apply one constraint batch to ``estimate`` and return the posterior.

    ``atom_to_column`` maps global atom ids to this estimate's local atom
    slots (``None`` = identity), allowing the same routine to serve both
    the flat solver (global state) and every node of the hierarchy (local
    state).  The input estimate is not modified unless ``consume_estimate``
    is true, by which the caller declares the input dead: its covariance
    buffer may then be recycled as the posterior's storage instead of
    copied (identical arithmetic, one fewer n×n copy).  Solver batch loops
    pass it for their own intermediates — the output of batch ``k`` fed to
    batch ``k+1`` — never for caller-visible estimates.  ``retry_log``, if
    given, collects a :class:`~repro.faults.RetryReport` for every attempt
    sequence that needed at least one retry.  ``step`` is this batch's
    0-based index within its solver unit, consumed by
    :attr:`UpdateOptions.schedule` to anneal the measurement variances
    over constraint application.

    The fast kernels read only the upper triangle of the covariance and
    write only that triangle of the posterior (:mod:`repro.linalg.fast`,
    "Half storage"), so the posterior is mirrored once before it is
    returned.  ``half_stored`` is the batch loop's second opt-in (see
    :func:`apply_batches`): the posterior is returned half-stored, for
    the loop's next batch to read or for the loop to mirror once.  Where
    the update leaves nothing half-stored (:func:`half_storage_applies`
    is false) the flag has no effect.
    """
    if options.local_iterations < 1:
        raise DimensionError("local_iterations must be >= 1")
    if options.noise_scale <= 0:
        raise DimensionError("noise_scale must be positive")
    if options.kernel_impl not in KERNEL_IMPLS:
        raise DimensionError(
            f"kernel_impl must be one of {KERNEL_IMPLS}, got {options.kernel_impl!r}"
        )
    noise_scale = options.noise_scale
    if options.schedule is not None:
        noise_scale = noise_scale * options.schedule.scale(step)
    x = estimate.mean
    c = estimate.covariance
    n = x.shape[0]
    injector = current_injector()

    # The vector tier linearizes through a compiled BatchPlan cached in the
    # per-thread arena; the plan survives the local-iteration loop below as
    # well as later cycles that re-wrap the same constraints.
    plan = (
        get_workspace().plan_for(batch, atom_to_column, n_columns=n)
        if options.kernel_impl == "vector"
        else None
    )

    with obs.span(
        "batch",
        cat="update",
        rows=batch.dimension,
        n_constraints=len(batch.constraints),
        state_dim=int(n),
    ):
        coords_owner: _CoordsView | None = None
        # After the first local iteration the running (x, c) is this call's
        # own intermediate, so later iterations always own the covariance.
        c_owned = consume_estimate
        for _ in range(options.local_iterations):
            coords_owner = _CoordsView(x, atom_to_column, reuse=coords_owner)
            if plan is not None:
                z, h, big_h, r, support, h_s = plan.assemble(coords_owner.coords)
            else:
                z, h, big_h, r = assemble_batch(
                    batch, coords_owner.coords, atom_to_column, n_columns=n
                )
                support = h_s = None
            if noise_scale != 1.0:
                r = r * noise_scale
            x, c = _update_with_retry(
                x, c, z, h, big_h, r, n, options, injector, retry_log,
                support=support, h_s=h_s, c_owned=c_owned,
            )
            c_owned = True
        if not half_stored and half_storage_applies(options):
            complete_upper(c)

    return StructureEstimate(x, c)


def half_storage_applies(options: UpdateOptions) -> bool:
    """Whether an update under ``options`` leaves its posterior half-stored.

    The fast and vector tiers downdate one triangle.  The reference tier
    and the Joseph form compute, and read, the full matrix.
    """
    return options.kernel_impl != "reference" and not options.joseph


def apply_batches(
    estimate: StructureEstimate,
    batches: Sequence[ConstraintBatch],
    atom_to_column: np.ndarray | None,
    options: UpdateOptions,
    unit: int | str,
    quarantined: list[QuarantineRecord],
    retries: list[RetryReport],
    apply: Callable[..., StructureEstimate] = apply_batch,
) -> StructureEstimate:
    """Apply ``batches`` in order to ``estimate``: one solver unit's batch loop.

    This is the loop every solver runs per node (``unit`` = node id) or
    per flat cycle (``unit = "flat"``).  A batch whose update fails
    terminally is quarantined: a :class:`QuarantineRecord` for ``unit``
    goes to ``quarantined`` and the loop continues from the last good
    posterior.  Retry reports go to ``retries``.

    Each batch's output is the loop's own intermediate, so it is passed
    on half-stored and with ``consume_estimate=True`` (the input
    ``estimate`` is never consumed).  The returned posterior is always
    full: where :func:`half_storage_applies`, the loop mirrors it once,
    after its last batch (:func:`repro.linalg.fast.complete_upper`, an
    ``m-m`` event).
    ``apply`` is the per-batch update, looked up by the caller so a
    wrapper installed at the caller's module name sees every batch.
    """
    current = estimate
    produced = False
    for step, batch in enumerate(batches):
        try:
            current = apply(
                current,
                batch,
                atom_to_column,
                options,
                retry_log=retries,
                step=step,
                consume_estimate=produced,
                half_stored=True,
            )
            produced = True
        except BatchUpdateError as exc:
            obs.instant(
                "batch.quarantined", cat="fault", nid=unit, rows=batch.dimension
            )
            obs.inc("solve.batches_quarantined")
            quarantined.append(
                QuarantineRecord(
                    nid=unit,
                    n_constraints=len(batch.constraints),
                    n_rows=batch.dimension,
                    reason=str(exc),
                )
            )
    if produced and half_storage_applies(options):
        complete_upper(current.covariance)
    return current


def _update_with_retry(
    x: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    h: np.ndarray,
    big_h,
    r: np.ndarray,
    n: int,
    options: UpdateOptions,
    injector: FaultInjector | None,
    retry_log: list[RetryReport] | None,
    support: np.ndarray | None = None,
    h_s: np.ndarray | None = None,
    c_owned: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 2-6 under the bounded escalating-regularization retry policy.

    Attempt 0 is unregularized; retry ``k`` regularizes ``S`` by
    ``jitter · growth^(k-1)`` relative to ``1 + |diag(S)|``.  Every
    attempt recomputes from the pre-attempt ``(x, c)``, so transiently
    poisoned kernels and injected factorization failures are washed out
    by the recomputation rather than committed.  ``c_owned`` permits the
    in-place covariance downdate; retry safety is preserved because every
    recoverable failure raises before the downdate touches ``c`` (see
    :func:`_fast_steps`).
    """
    retries_enabled = options.jitter > 0
    max_attempts = 1 + (max(0, options.max_retries) if retries_enabled else 0)
    failures: list[RetryAttempt] = []
    reg = 0.0
    for attempt in range(max_attempts):
        reg = 0.0 if attempt == 0 else options.jitter * options.jitter_growth ** (attempt - 1)
        try:
            x_new, c_new = _attempt_update(
                x, c, z, h, big_h, r, n, options, reg, injector,
                support=support, h_s=h_s, c_owned=c_owned,
            )
        except (NotPositiveDefiniteError, InjectedFaultError) as exc:
            failures.append(
                RetryAttempt(regularization=reg, error=type(exc).__name__, message=str(exc))
            )
            obs.instant(
                "update.retry",
                cat="fault",
                attempt=attempt,
                regularization=reg,
                error=type(exc).__name__,
            )
            obs.inc("update.retry_total")
            if not retries_enabled:
                raise  # robustness disabled (jitter=0): preserve the failure
            continue
        if failures:
            obs.inc("update.retry_recovered")
            if retry_log is not None:
                retry_log.append(
                    RetryReport(
                        attempts=tuple(failures),
                        succeeded=True,
                        final_regularization=reg,
                    )
                )
        return x_new, c_new
    report = RetryReport(
        attempts=tuple(failures), succeeded=False, final_regularization=reg
    )
    if retry_log is not None:
        retry_log.append(report)
    obs.instant(
        "update.batch_failed",
        cat="fault",
        attempts=max_attempts,
        error=failures[-1].error,
    )
    obs.inc("update.batch_failures")
    raise BatchUpdateError(
        f"batch update failed terminally after {max_attempts} attempts "
        f"(last error: {failures[-1].message})",
        report=report,
    )


def _attempt_update(
    x: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    h: np.ndarray,
    big_h,
    r: np.ndarray,
    n: int,
    options: UpdateOptions,
    regularization: float,
    injector: FaultInjector | None,
    support: np.ndarray | None = None,
    h_s: np.ndarray | None = None,
    c_owned: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One full measurement-update attempt; raises rather than commit NaNs."""
    if injector is not None:
        z = injector.maybe_corrupt(z)
    if options.kernel_impl == "reference":
        # The legacy tier stays pinned to its out-of-place kernels;
        # ``c_owned`` is advisory and simply unused here.
        x_new, c_new = _reference_steps(
            x, c, z, h, big_h, r, n, options, regularization, injector
        )
    else:
        # "fast" and "vector" share the kernel path; the vector tier
        # additionally hands over its precomputed support restriction.
        x_new, c_new = _fast_steps(
            x, c, z, h, big_h, r, n, options, regularization, injector,
            support=support, h_s=h_s, c_owned=c_owned,
        )
    if injector is not None and (
        not np.all(np.isfinite(x_new)) or not np.all(np.isfinite(c_new))
    ):
        raise InjectedFaultError("non-finite posterior detected")
    return x_new, c_new


def _reference_steps(
    x: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    h: np.ndarray,
    big_h,
    r: np.ndarray,
    n: int,
    options: UpdateOptions,
    regularization: float,
    injector: FaultInjector | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 2-6 through the original out-of-place kernels (bitwise legacy)."""
    # Step 2: C⁻Hᵗ via the dense-sparse kernels (C is symmetric, so
    # C Hᵗ = (H C)ᵗ; rmatmul keeps the (n×m) result layout directly).
    cht = big_h.rmatmul_dense(c)  # C⁻Hᵗ, an (n×m) array (C symmetric)
    s = big_h.matmul_dense(cht)  # (m, m) = H · (C⁻Hᵗ)
    s = add_diagonal(s, r)
    if injector is not None and not np.all(np.isfinite(s)):
        raise InjectedFaultError("non-finite innovation covariance detected")
    if regularization > 0.0:
        s = add_diagonal(s, regularization * (1.0 + np.abs(np.diag(s))))
    # Step 3 + 4: factor S, solve for the gain K = C⁻Hᵗ S⁻¹.
    lower = cholesky_factor(s, regularization=regularization)
    kt = cholesky_solve(lower, cht.T)  # (m, n): S Kᵗ = (C⁻Hᵗ)ᵗ
    k = kt.T
    # Step 5: state update with the innovation z − h(x).
    innovation = vec_sub(z, h)
    x_new = vec_add(x, gemv(k, innovation))
    # Step 6: covariance update.
    if options.joseph:
        c_new = _joseph_update(c, k, big_h, r, n)
    else:
        c_new = outer_update(c, k, cht)
    c_new = symmetrize(c_new)
    return x_new, c_new


def _fast_steps(
    x: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    h: np.ndarray,
    big_h,
    r: np.ndarray,
    n: int,
    options: UpdateOptions,
    regularization: float,
    injector: FaultInjector | None,
    support: np.ndarray | None = None,
    h_s: np.ndarray | None = None,
    c_owned: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Steps 2-6 through the symmetric in-place kernels of :mod:`repro.linalg.fast`.

    The whitened gain factor ``W = C⁻Hᵗ·L⁻ᵗ`` replaces the explicit gain:
    ``K·ν = W·(L⁻¹ν)`` gives the state update and ``C⁺ = C⁻ − W·Wᵗ`` the
    covariance downdate (a symmetric rank-m ``dsyrk`` of one triangle,
    which ``apply_batch`` or its batch loop mirrors — exactly symmetric
    by construction, so the reference path's re-symmetrization pass
    disappears).  All intermediates live in
    the per-thread workspace arena; the only n×n allocation per attempt
    is the posterior covariance itself, which must outlive the call —
    and with ``c_owned`` even that disappears: the caller has declared
    the prior covariance dead, so the downdate runs in place on it.

    ``support``/``h_s`` may be supplied by the planned assembler (the
    ``vector`` tier), skipping the per-attempt support scan and dense
    restriction below.  Both readers of ``C⁻`` read only its upper
    triangle and the downdate writes only that triangle, so the prior
    may be half-stored and the posterior is.
    """
    m = z.shape[0]
    ws = get_workspace()
    if support is None:
        support = big_h.column_support()  # the s state columns H touches
        h_s = big_h.restrict_columns(support).to_dense()  # (m, s) dense
    s_cols = int(support.size)
    # Step 2: C⁻Hᵗ. Gathered thin GEMM when the support is sparse relative
    # to the state; dsymm on the full (symmetric) C when it is not.
    if 2 * s_cols >= n:
        htd = ws.take("htd", (n, m))
        htd.fill(0.0)
        htd[support, :] = h_s.T
        cht = symm(
            c, htd, out=ws.take("cht", (n, m)), category=OpCategory.DENSE_SPARSE
        )
    else:
        cht = gather_cht(c, h_s, support, out=ws.take("cht_t", (m, n), order="C"))
    s_mat = spmm_support(h_s, cht, support)  # (m, m) = H·(C⁻Hᵗ)
    add_diagonal_inplace(s_mat, r)
    if injector is not None and not np.all(np.isfinite(s_mat)):
        raise InjectedFaultError("non-finite innovation covariance detected")
    if regularization > 0.0:
        add_diagonal_inplace(
            s_mat, regularization * (1.0 + np.abs(np.diag(s_mat)))
        )
    # Step 3 + 4: factor S; whiten in place: W = C⁻Hᵗ·L⁻ᵗ.
    lower = cholesky_factor(s_mat, regularization=regularization)
    w = trsm_right(lower, cht)
    # Step 5: x⁺ = x + K·ν = x + W·(L⁻¹ν).
    innovation = vec_sub(z, h)
    x_new = vec_add(x, gemv(w, solve_lower(lower, innovation)))
    # Step 6: covariance update.
    if options.joseph:
        k = trsm_right(lower, np.array(w, order="F"), transpose=False)
        c_new = symmetrize(_joseph_update(c, k, big_h, r, n))
    else:
        if (
            c_owned
            and injector is None
            and c.dtype == np.float64
            and c.flags.c_contiguous
            and c.flags.writeable
        ):
            # The prior is a dead intermediate: downdate it in place.
            # This is the first mutation of ``c`` in the attempt, and
            # nothing below it can raise, so a Cholesky failure above
            # still retries from an untouched prior.  An active injector
            # disables the reuse because its non-finite posterior check
            # raises *after* this point.
            c_new = c
        else:
            # The posterior escapes the call, so it is the one fresh n×n
            # allocation.  C-ordered so StructureEstimate takes it
            # without a relayout copy; its transpose view is
            # Fortran-contiguous and the downdate is symmetric, so dsyrk
            # can work on the view in place.
            c_new = np.array(c, dtype=np.float64, order="C")
        syrk_downdate(c_new.T, w, mirror=False)
    return x_new, c_new


class _CoordsView:
    """Expose a local state vector as global-shaped coordinates.

    Constraints index coordinates by *global* atom id.  For a node-local
    state we build a scratch ``(p_global, 3)`` array holding the local
    atoms' coordinates at their global rows; rows of atoms outside the node
    stay zero and must never be read (the batch assembler validates that
    every constraint atom maps into the local column map).

    ``reuse`` accepts the previous iteration's view so the scratch array
    (and the owned-row index) is refilled in place instead of reallocated
    on every local relinearization pass — unowned rows were zeroed once
    and are never written, so the refill only touches owned rows.
    """

    def __init__(
        self,
        x: np.ndarray,
        atom_to_column: np.ndarray | None,
        reuse: "_CoordsView | None" = None,
    ):
        if atom_to_column is None:
            self.coords = x.reshape(-1, 3)
            self.owned = None
        else:
            p_global = atom_to_column.shape[0]
            local = x.reshape(-1, 3)
            if reuse is not None and reuse.owned is not None:
                coords = reuse.coords
                owned = reuse.owned
            else:
                coords = np.zeros((p_global, 3), dtype=np.float64)
                owned = np.nonzero(atom_to_column >= 0)[0]
            coords[owned] = local[atom_to_column[owned]]
            self.coords = coords
            self.owned = owned


def _joseph_update(
    c: np.ndarray, k: np.ndarray, big_h, r: np.ndarray, n: int
) -> np.ndarray:
    """Joseph-form covariance update (numerically PSD-preserving)."""
    kh = gemm(k, big_h.to_dense())  # (n, n); densified H is acceptable here
    a = np.eye(n) - kh
    ac = gemm(a, c)
    c_new = gemm(ac, a.T)
    krk = gemm(k * r[None, :], k.T)
    return c_new + krk
