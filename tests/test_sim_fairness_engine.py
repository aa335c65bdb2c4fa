"""The incremental fairness engine vs the reference implementation.

Three layers of protection for :class:`repro.sim.fairness.FairnessProblem`:

* **equivalence** — randomized agreement (full solves, masked solves,
  and event-loop-style *sequences* of masked solves that exercise the
  bottleneck-structure hint) with
  :func:`tests.oracles.reference_max_min_fair_rates`, the
  pre-incremental scipy implementation kept as the executable spec;
* **invariants** — capacity feasibility and max-min bottleneck
  optimality under arbitrary activity masks;
* **regression** — dynamic-mode ``SimResult`` totals on seed scenarios
  are pinned to the values the pre-engine simulator produced, so the
  perf work provably changed no science.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import MIB
from repro.experiments.configs import build_fabric, get_combination, make_job
from repro.sim.engine import FlowSimulator
from repro.sim.fairness import FairnessProblem, link_loads
from tests.oracles import reference_max_min_fair_rates

RTOL = 1e-9


@st.composite
def _flow_systems(draw):
    n_links = draw(st.integers(1, 12))
    caps = draw(
        st.lists(
            st.floats(0.5, 100.0, allow_nan=False),
            min_size=n_links, max_size=n_links,
        )
    )
    n_flows = draw(st.integers(1, 25))
    flows = [
        draw(
            st.lists(
                st.integers(0, n_links - 1),
                min_size=0, max_size=min(6, n_links),
            )
        )
        for _ in range(n_flows)
    ]
    return flows, np.array(caps)


def _assert_agrees(new: np.ndarray, ref: np.ndarray) -> None:
    both_inf = np.isinf(new) & np.isinf(ref)
    finite = ~both_inf
    assert np.isinf(new).tolist() == np.isinf(ref).tolist()
    np.testing.assert_allclose(new[finite], ref[finite], rtol=RTOL, atol=0)


class TestReferenceEquivalence:
    @given(_flow_systems())
    @settings(max_examples=150, deadline=None)
    def test_full_solve_matches_reference(self, system):
        flows, caps = system
        prob = FairnessProblem(flows, caps)
        _assert_agrees(prob.rates(), reference_max_min_fair_rates(flows, caps))

    @given(_flow_systems())
    @settings(max_examples=40, deadline=None)
    def test_sparse_link_ids_solve_the_same(self, system):
        """Ids far apart are compacted by sorting instead of a dense
        mark; the rates must not depend on which way was taken."""
        flows, caps = system
        far = [[10**6 * (lid + 1) for lid in f] for f in flows]
        far_caps = {10**6 * (lid + 1): c for lid, c in enumerate(caps)}
        dense = FairnessProblem(flows, caps).rates()
        assert FairnessProblem(far, far_caps).rates().tobytes() == dense.tobytes()

    @given(_flow_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_masked_solve_matches_reference_subproblem(self, system, rnd):
        flows, caps = system
        prob = FairnessProblem(flows, caps)
        mask = np.array([rnd.random() < 0.6 for _ in flows])
        rates = prob.rates(mask)
        assert (rates[~mask] == 0).all()
        idx = np.flatnonzero(mask)
        if idx.size:
            ref = reference_max_min_fair_rates([flows[i] for i in idx], caps)
            _assert_agrees(rates[idx], ref)

    @given(_flow_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_drain_sequence_matches_reference(self, system, rnd):
        """Event-loop shape: the mask shrinks one random flow at a time.

        The first masked call emits the bottleneck-structure hint; every
        later call takes the hint fast path (or falls back) — each step
        must still agree with an independent reference solve.
        """
        flows, caps = system
        prob = FairnessProblem(flows, caps)
        alive = list(range(len(flows)))
        rnd.shuffle(alive)
        while alive:
            mask = np.zeros(len(flows), dtype=bool)
            mask[alive] = True
            rates = prob.rates(mask)
            ref = reference_max_min_fair_rates(
                [flows[i] for i in alive], caps
            )
            _assert_agrees(rates[np.asarray(alive)], ref)
            alive.pop()

    @given(_flow_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_hint_survives_mask_jumps(self, system, rnd):
        """Arbitrary mask changes (grow *and* shrink) stay exact: a
        stale hint must either verify or fall back, never mis-solve."""
        flows, caps = system
        prob = FairnessProblem(flows, caps)
        for _ in range(5):
            mask = np.array([rnd.random() < 0.5 for _ in flows])
            idx = np.flatnonzero(mask)
            rates = prob.rates(mask)
            if idx.size:
                ref = reference_max_min_fair_rates(
                    [flows[i] for i in idx], caps
                )
                _assert_agrees(rates[idx], ref)


class TestMaskedInvariants:
    @given(_flow_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_capacity_never_exceeded_under_mask(self, system, rnd):
        flows, caps = system
        prob = FairnessProblem(flows, caps)
        for _ in range(3):
            mask = np.array([rnd.random() < 0.6 for _ in flows])
            rates = prob.rates(mask)
            loads = link_loads(flows, rates)
            for lid, load in loads.items():
                assert load <= caps[lid] * (1 + 1e-6)

    @given(_flow_systems(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_active_flow_bottlenecked_under_mask(self, system, rnd):
        flows, caps = system
        prob = FairnessProblem(flows, caps)
        mask = np.array([rnd.random() < 0.6 for _ in flows])
        rates = prob.rates(mask)
        loads = link_loads(flows, rates)
        for f in np.flatnonzero(mask).tolist():
            if not flows[f]:
                continue
            bottleneck = False
            for lid in flows[f]:
                if loads.get(lid, 0.0) < caps[lid] * (1 - 1e-6):
                    continue
                co = [
                    rates[g]
                    for g in np.flatnonzero(mask)
                    if lid in flows[g]
                ]
                if rates[f] >= max(co) * (1 - 1e-6):
                    bottleneck = True
                    break
            assert bottleneck, f"active flow {f} has no max-min bottleneck"

    def test_counts_weigh_duplicate_flows(self):
        # Two identical flows form one class of weight 2: each gets half
        # of what a lone flow would.
        caps = {0: 8.0}
        prob = FairnessProblem([[0], [0]], caps)
        assert np.allclose(prob.rates(), 4.0)
        only_first = prob.rates(np.array([True, False]))
        assert only_first[0] == pytest.approx(8.0)
        assert only_first[1] == 0.0


class TestDynamicGoldenRegression:
    """Dynamic-mode totals pinned to the pre-engine simulator's output.

    The incremental engine reorders nothing observable: link occupancies
    are exact integer-valued floats, so water levels and freezing order
    coincide with the original per-event rebuild, and these totals must
    match to relative 1e-9 (they match bit-for-bit at the time of
    writing).
    """

    GOLDEN = {
        ("hx-dfsssp-linear", "alltoall"): (
            0.010074849264705884, 0.010052849264705883, 138412032.0
        ),
        ("hx-dfsssp-linear", "allreduce"): (
            0.009200776470588236, 0.009191176470588234, 134217728.0
        ),
        ("hx-dfsssp-linear", "bcast"): (
            0.0015997334558823532, 0.0015797334558823527, 5767168.0
        ),
        ("ft-ftree-linear", "alltoall"): (
            0.003179266911764706, 0.0031594669117647055, 138412032.0
        ),
        ("ft-ftree-linear", "allreduce"): (
            0.005753485294117647, 0.0057444852941176475, 134217728.0
        ),
        ("ft-ftree-linear", "bcast"): (
            0.0015995334558823531, 0.0015797334558823527, 5767168.0
        ),
        ("hx-parx-clustered", "alltoall"): (
            0.005538261029411766, 0.0054572610294117635, 138412032.0
        ),
        ("hx-parx-clustered", "allreduce"): (
            0.009226376470588236, 0.009191176470588236, 134217728.0
        ),
        ("hx-parx-clustered", "bcast"): (
            0.0016557334558823533, 0.0015797334558823527, 5767168.0
        ),
    }

    @pytest.mark.parametrize(
        "combo_key", ["hx-dfsssp-linear", "ft-ftree-linear", "hx-parx-clustered"]
    )
    def test_dynamic_totals_unchanged(self, combo_key):
        combo = get_combination(combo_key)
        fabric = build_fabric(combo, scale=2, seed=0)
        job = make_job(combo, fabric, 12, seed=0)
        sim = FlowSimulator(fabric.net, mode="dynamic")
        programs = {
            "alltoall": job.alltoall(1 * MIB),
            "allreduce": job.allreduce(4 * MIB),
            "bcast": job.bcast(512 * 1024),
        }
        for op, program in programs.items():
            res = sim.run(program)
            total, transfer, nbytes = self.GOLDEN[(combo_key, op)]
            assert res.total_time == pytest.approx(total, rel=RTOL)
            assert res.transfer_time == pytest.approx(transfer, rel=RTOL)
            assert res.bytes_moved == nbytes

    def test_static_and_dynamic_agree_on_uniform_phase(self):
        """On a perfectly symmetric phase every flow finishes at once:
        the dynamic event loop must collapse to the static answer."""
        combo = get_combination("hx-dfsssp-linear")
        fabric = build_fabric(combo, scale=2, seed=0)
        job = make_job(combo, fabric, 8, seed=0)
        program = job.bcast(1 * MIB)
        static = FlowSimulator(fabric.net, mode="static").run(program)
        dynamic = FlowSimulator(fabric.net, mode="dynamic").run(program)
        assert dynamic.total_time <= static.total_time * (1 + 1e-9)
