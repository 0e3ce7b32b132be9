"""Enumeration-exact equivalence of the batched columnar executors.

The strongest claim for the tentpole: running ``query_many`` over *every*
bit string of depth D shows that a batch of draws from the columnar
executor has exactly the law of independent per-entry-engine queries —
the **joint** law over the whole batch equals the product of the exact
single-query PSS laws, which pins both per-draw exactness and cross-draw
independence, not merely statistically close samples.

Both engines are covered: ``fast=True`` exercises the site-major columnar
executor (batch-thinned insignificant gates, tabulated instance/chain
alias rows, grouped Algorithm 5 chains), ``fast=False`` the exact
per-entry engine batched over the shared ``QueryPlan``.  The gate word is
shrunk so the enumeration stays feasible; the output law is gate-width
independent.
"""

import pytest

from repro.core.bucket_dpss import BucketDPSS
from repro.core.halt import HALT
from repro.core.naive import NaiveDPSS
from repro.fastpath.gate import set_gate_bits
from repro.randvar.distributions import subset_sample_pmf
from repro.wordram.rational import Rat

from ..randvar.harness import assert_law_close, enumerate_law


def product_law(weights, alpha, beta):
    """The exact PSS output law as a mask -> Rat map."""
    total = Rat.of(alpha) * sum(weights) + Rat.of(beta)
    probs = [
        (Rat(w) / total).min_with_one() if not total.is_zero() else
        (Rat.one() if w else Rat.zero())
        for w in weights
    ]
    return subset_sample_pmf(probs)


def batch_product_law(weights, alpha, beta, count):
    """The joint law of ``count`` *independent* PSS draws: the product of
    the single-draw laws over outcome-mask tuples."""
    single = product_law(weights, alpha, beta)
    joint = {(): Rat.one()}
    for _ in range(count):
        joint = {
            masks + (mask,): mass * p
            for masks, mass in joint.items()
            for mask, p in single.items()
        }
    return joint


def batched_mask_law(structure_factory, alpha, beta, count, depth, gate_bits):
    """Enumerate the joint law of one ``query_many`` batch."""
    previous = set_gate_bits(gate_bits)
    try:
        structure = structure_factory()

        def run(src):
            structure.source = src
            masks = []
            for sample in structure.query_many(alpha, beta, count):
                mask = 0
                for key in sample:
                    mask |= 1 << key
                masks.append(mask)
            return tuple(masks)

        return enumerate_law(run, depth)
    finally:
        set_gate_bits(previous)


class TestBatchedColumnarLawExact:
    """Batched fast HALT == independent exact product laws, enumerated."""

    @pytest.mark.parametrize("gate_bits,depth", [(1, 15), (2, 18)])
    def test_two_items_two_draws(self, gate_bits, depth):
        weights = [1, 3]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=True), 1, 0, 2, depth,
            gate_bits,
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 2))

    def test_three_items_two_draws(self):
        weights = [1, 1, 2]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=True), 1, 0, 2, 15, 1
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 2))

    def test_with_beta(self):
        # W = 1*4 + 2 = 6: exercises non-dyadic gates through the batch.
        weights = [1, 3]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=True), 1, 2, 2, 17, 1
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 2, 2))

    def test_three_draws(self):
        weights = [1, 3]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=True), 1, 0, 3, 19, 1
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 3))

    def test_with_zero_weight_item(self):
        weights = [0, 1, 3]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=True), 1, 0, 2, 15, 1
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 2))


class TestStructuralPathsLawExact:
    """The alias tabulations are a fast path, not the correctness story:
    with the tabulation ceilings forced to zero the executor walks the
    fully structural batched paths (site-major final level, per-draw and
    batch-thinned insignificant gates, grouped Algorithm 5 chains) — and
    must enumerate to the same independent product law."""

    @pytest.fixture(autouse=True)
    def no_alias_rows(self, monkeypatch):
        from repro.core.plan import QueryPlan

        monkeypatch.setattr(QueryPlan, "INSTANCE_ALIAS_MAX", 0)
        monkeypatch.setattr(QueryPlan, "INSIG_ALIAS_MAX", 0)
        monkeypatch.setattr(QueryPlan, "CHAIN_ALIAS_MAX", 0)

    def test_two_items_two_draws_structural(self):
        # One deep case keeps this affordable: gate-width independence and
        # non-dyadic totals are pinned by the alias-path tests above and
        # the single-draw enumeration suite.
        weights = [1, 3]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=True), 1, 0, 2, 20, 1
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 2))


class TestBatchedExactEngineLaw:
    """fast=False query_many (shared-plan loop) enumerates to the same
    independent product law."""

    def test_two_items_two_draws_exact_engine(self):
        # W = 1*2 + 2 = 4: dyadic probabilities keep the exact engine's
        # bit consumption enumerable at batch depth.
        weights = [1, 1]
        law, undecided = batched_mask_law(
            lambda: HALT(enumerate(weights), fast=False), 1, 2, 2, 18, 1
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 2, 2))


class TestBaselinesBatchedLaw:
    @pytest.mark.parametrize("gate_bits", [1, 2])
    def test_naive_item_major(self, gate_bits):
        weights = [1, 3, 4]
        law, undecided = batched_mask_law(
            lambda: NaiveDPSS(enumerate(weights), fast=True), 1, 0, 2, 16,
            gate_bits,
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 2))

    @pytest.mark.parametrize("gate_bits", [1, 2])
    def test_bucket_walk_bucket_major(self, gate_bits):
        weights = [1, 3]
        law, undecided = batched_mask_law(
            lambda: BucketDPSS(enumerate(weights), fast=True), 1, 0, 2, 16,
            gate_bits,
        )
        assert_law_close(law, undecided, batch_product_law(weights, 1, 0, 2))
