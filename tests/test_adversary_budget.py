"""Budget contract and oracle of the adversarial certifier (``ScenarioAdversary``).

The budget contract under test (see ``ScenarioAdversary.certify``'s docstring):

- an invalid budget is rejected at construction, not at certify time;
- the factory stress families (and caller-supplied ``extra_specs``) are *always*
  scored, even when that alone exceeds the budget — only the all-severe corners
  (one per remote site down, then the outage-free one) are metered;
- distinct specs are deduplicated by compiled identity, so a duplicated spec
  never double-bills the budget;
- with neutral bounds (every knob pinned to its neutral value, no outages) every
  corner is the baseline, so ``budget_spent`` is the family count.

The oracle: at the default budget a certificate spends the families plus the
corners, and its worst regret is the maximum over the {neutral, severe} knob grid
× outage choices, each point scored through ``evaluate_under`` and the documented
scalarization.

The one stacked pass: ``certify`` scores the baseline and every probe in one
``evaluate_specs`` call, and equals — field by field, counters included — the
per-spec loop it replaced, written out below as :func:`_per_spec_certificate`.
"""

import itertools

import pytest
from fingerprints import build_tiny_evaluator, fingerprint_certificate, severity_spec

from repro.cluster import MigrationPlan
from repro.quality import (
    AdversaryBounds,
    MigrationPreferences,
    PriceShock,
    RobustnessCertificate,
    ScenarioAdversary,
    ScenarioFactory,
    ScenarioSpec,
)

#: All knobs pinned to their neutral value: every corner compiles to the baseline.
NEUTRAL_BOUNDS = AdversaryBounds(
    max_rate_scale=1.0,
    max_payload_scale=1.0,
    max_latency_factor=1.0,
    min_bandwidth_factor=1.0,
    max_price_factor=1.0,
    min_capacity_fraction=1.0,
    allow_outages=False,
)


@pytest.fixture(scope="module")
def adversary_stack(tiny_telemetry):
    app, result = tiny_telemetry
    telemetry = result.telemetry

    def build():
        return build_tiny_evaluator(app, telemetry)

    evaluator = build()
    plan = MigrationPlan.from_vector(app.component_names, [0, 1, 0, 1, 0, 0])
    families = list(
        ScenarioFactory.from_evaluator(evaluator).stress_families(include_baseline=False)
    )
    return build, plan, families


def _scalarized(baseline, quality, bounds):
    """The certificate's documented scalarization: positive regret normalized by
    max(|baseline|, 1), summed, plus the surcharge for lost feasibility."""
    score = sum(
        max(worst - base, 0.0) / max(abs(base), 1.0)
        for worst, base in zip(quality.objectives(), baseline.objectives())
    )
    if baseline.feasible and not quality.feasible:
        score += bounds.infeasibility_penalty
    return score


def _per_spec_certificate(adversary, plan):
    """The certificate as the adversary computed it before its one stacked pass: the
    baseline, then every family and extra spec, then the corners within budget, each
    deduplicated by identity and scored alone through ``evaluate_under``."""
    evaluator, bounds = adversary.evaluator, adversary.bounds
    baseline = evaluator.evaluate_under(plan, ScenarioSpec(name="certify-baseline"))
    seen, candidates = set(), []

    def consider(spec):
        if spec.identity_key() in seen:
            return None
        seen.add(spec.identity_key())
        quality = evaluator.evaluate_under(plan, spec)
        regret = tuple(v - b for v, b in zip(quality.objectives(), baseline.objectives()))
        candidates.append((spec, quality, regret, _scalarized(baseline, quality, bounds)))
        return candidates[-1]

    family_regrets = {}
    families = [
        spec
        for spec in [
            *adversary.factory.stress_families(include_baseline=False),
            *adversary.extra_specs,
        ]
        if adversary._supported(spec)
    ]
    for spec in families:
        candidate = consider(spec)
        if candidate is not None:
            family_regrets[spec.name] = candidate[3]
    outages = sorted(adversary.factory.remote_locations) if bounds.allow_outages else []
    for outage in [*outages, None]:
        if len(candidates) >= adversary.budget:
            break
        corner = adversary._corner(outage)
        if corner is not None:
            consider(corner)
    spec, worst, regret, score = max(candidates, key=lambda candidate: candidate[3])
    return RobustnessCertificate(
        plan=plan,
        objective_names=evaluator.objective_names,
        baseline_values=baseline.objectives(),
        baseline_feasible=baseline.feasible,
        worst_spec=spec,
        worst_values=worst.objectives(),
        regret=regret,
        worst_regret=score,
        feasible_under_fault=worst.feasible,
        violations=worst.violations,
        budget_spent=len(candidates),
        family_regrets=family_regrets,
    )


class TestOneStackedPass:
    @pytest.mark.parametrize("budget", [1, 9, 48])
    @pytest.mark.parametrize("limited", [True, False])
    def test_certify_is_the_per_spec_loop(
        self, adversary_stack, tiny_telemetry, budget, limited
    ):
        """Every field and float bit, and the evaluator's counters, with a drift spec
        and an extra spec named like a family: under the tiny stack's on-prem limit
        (no plan is feasible, so violations differ by spec) and without it (the
        on-premises plan survives, one with a remote component loses feasibility)."""
        _build, _plan, families = adversary_stack
        app, result = tiny_telemetry
        preferences = None if limited else MigrationPreferences(pinned_placement={"Database": 0})

        def build():
            return build_tiny_evaluator(app, result.telemetry, preferences=preferences)

        extras = (
            ScenarioSpec(name="drift-refresh", rate_scale=1.7),
            ScenarioSpec(name=families[0].name, faults=(PriceShock(compute_factor=3.0),)),
        )
        survived = set()
        for vector in ([0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 0], [0, 1, 1, 0, 1, 0]):
            plan = MigrationPlan.from_vector(app.component_names, vector)
            stacked, looped = build(), build()
            got = ScenarioAdversary(stacked, budget=budget, extra_specs=extras).certify(plan)
            want = _per_spec_certificate(
                ScenarioAdversary(looped, budget=budget, extra_specs=extras), plan
            )
            assert got == want
            assert repr(got) == repr(want)  # every float's repr, the specs' too
            assert got.family_regrets[families[0].name] == want.family_regrets[families[0].name]
            assert (stacked.evaluations, stacked.scenario_evaluations) == (
                looped.evaluations,
                looped.scenario_evaluations,
            ) == (got.budget_spent + 1, got.budget_spent + 1)
            survived.add((got.baseline_feasible, got.survives))
        # Without the limit, two plans move the pinned Database.
        assert survived == (
            {(False, False)} if limited else {(True, True), (True, False), (False, False)}
        )


class TestAdversaryBudget:
    def test_invalid_budget_rejected_at_construction(self, adversary_stack):
        build, _, _ = adversary_stack
        evaluator = build()
        with pytest.raises(ValueError, match="budget"):
            ScenarioAdversary(evaluator, budget=0)
        with pytest.raises(ValueError, match="budget"):
            ScenarioAdversary(evaluator, budget=-5)

    def test_families_always_scored_even_beyond_budget(self, adversary_stack):
        """budget=1 < family count: every family is still scored and reported."""
        build, plan, families = adversary_stack
        assert len(families) > 1  # the premise: families alone exceed the budget
        certificate = ScenarioAdversary(build(), budget=1).certify(plan)
        assert certificate.budget_spent == len(families)
        assert set(certificate.family_regrets) == {spec.name for spec in families}
        # With the budget exhausted by the families, the worst case is one of them.
        assert certificate.worst_regret == max(certificate.family_regrets.values())

    def test_budget_caps_corner_spend(self, adversary_stack):
        """One unit of budget past the families buys the first corner only."""
        build, plan, families = adversary_stack
        certificate = ScenarioAdversary(build(), budget=len(families) + 1).certify(plan)
        assert certificate.budget_spent == len(families) + 1

    def test_duplicate_extra_specs_never_double_bill(self, adversary_stack):
        """A spec the factory already scores deduplicates by compiled identity."""
        build, plan, families = adversary_stack
        plain = ScenarioAdversary(build(), budget=1).certify(plan)
        duplicated = ScenarioAdversary(
            build(), budget=1, extra_specs=(families[0], families[0])
        ).certify(plan)
        assert duplicated.budget_spent == plain.budget_spent
        # A genuinely new spec bills exactly one evaluation.
        drift = ScenarioSpec(name="drift-refresh", rate_scale=1.7)
        extended = ScenarioAdversary(build(), budget=1, extra_specs=(drift,)).certify(plan)
        assert extended.budget_spent == plain.budget_spent + 1
        assert "drift-refresh" in extended.family_regrets

    def test_neutral_bounds_spend_the_family_count(self, adversary_stack):
        """Every corner is the baseline: nothing past the families is scored."""
        build, plan, families = adversary_stack
        adversary = ScenarioAdversary(build(), bounds=NEUTRAL_BOUNDS, budget=64)
        certificate = adversary.certify(plan)
        assert certificate.budget_spent == len(families) < 64

    def test_certificate_deterministic_across_budget_edges(self, adversary_stack):
        build, plan, _ = adversary_stack
        for budget in (1, 9):
            first = ScenarioAdversary(build(), budget=budget).certify(plan)
            second = ScenarioAdversary(build(), budget=budget).certify(plan)
            assert fingerprint_certificate(first) == fingerprint_certificate(second)

    def test_corners_spend_and_match_the_knob_grid(self, adversary_stack):
        """The default certificate scores the families plus |remote sites| + 1
        corners, and its worst regret is the {neutral, severe} grid's maximum."""
        build, plan, families = adversary_stack
        evaluator = build()
        bounds = AdversaryBounds()
        remote = [loc for loc in evaluator.performance.network.locations() if loc != 0]
        certificate = ScenarioAdversary(evaluator).certify(plan)
        assert certificate.budget_spent == len(families) + len(remote) + 1
        assert certificate.worst_spec.name.startswith("corner")

        oracle = build()
        sites = sorted(oracle.cost.catalogs)
        baseline = oracle.evaluate_under(plan, ScenarioSpec(name="baseline"))
        grid_max = max(
            _scalarized(
                baseline,
                oracle.evaluate_under(plan, severity_spec(levels, outage, sites)),
                bounds,
            )
            for levels in itertools.product((0, 2), repeat=7)
            for outage in [None] + remote
        )
        assert certificate.worst_regret == grid_max
