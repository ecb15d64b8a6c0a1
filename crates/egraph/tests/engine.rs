//! Engine-internal invariants:
//!
//! * the operator index stays exactly consistent with a from-scratch
//!   recomputation under randomized `add`/`union`/`rebuild` sequences;
//! * the compiled/indexed matcher returns the same `(Id, Subst)` sets as
//!   the retained naive reference matcher, on random graphs and across
//!   full saturation of the `math_lang` rule suite;
//! * saturation with the indexed + op-keyed delta scheduler reaches the
//!   same e-graph (nodes, classes, equivalences) and extracts the same
//!   terms as the naive matcher path;
//! * semi-naive delta search is sound and complete against a full search
//!   (itself cross-checked against the naive matcher);
//! * op-keyed delta probes skip classes whose probed-operator rows were
//!   untouched (counter-based, at query and runner level), and
//!   modification-log compaction is deterministic and exact.

use std::sync::Arc;

use proptest::prelude::*;

use hb_egraph::egraph::EGraph;
use hb_egraph::extract::{AstSize, WorklistExtractor};
use hb_egraph::language::Language;
use hb_egraph::math_lang::{n, padd, pdiv, pmul, pshl, pvar, Math};
use hb_egraph::pattern::{MatchScratch, Pattern, Subst};
use hb_egraph::rewrite::{Query, Rewrite};
use hb_egraph::schedule::Runner;
use hb_egraph::unionfind::Id;
use hb_obs::{CollectingSink, ProfileSink};

type EG = EGraph<Math, ()>;

/// One step of a randomized e-graph workout: `(op_selector, x, y)` with the
/// payload operands interpreted modulo the live id count.
type Step = (u8, u32, u32);

/// Applies a step sequence to an existing graph, extending `ids`.
fn apply_steps(eg: &mut EG, ids: &mut Vec<Id>, steps: &[Step]) {
    for &(op, x, y) in steps {
        let pick = |v: u32| ids[v as usize % ids.len()];
        match op % 6 {
            0 => ids.push(eg.add(Math::Num(i64::from(x % 8)))),
            1 => ids.push(eg.add(Math::Mul([pick(x), pick(y)]))),
            2 => ids.push(eg.add(Math::Add([pick(x), pick(y)]))),
            3 => ids.push(eg.add(Math::Div([pick(x), pick(y)]))),
            4 => {
                eg.union(pick(x), pick(y));
            }
            _ => eg.rebuild(),
        }
    }
    eg.rebuild();
}

/// Replays a step sequence, returning the graph and the ids it created.
fn replay(steps: &[Step]) -> (EG, Vec<Id>) {
    let mut eg = EG::new();
    let mut ids: Vec<Id> = Vec::new();
    // Seed a few leaves so binary ops always have operands.
    for s in ["a", "b", "c"] {
        ids.push(eg.add(Math::Sym(s.into())));
    }
    apply_steps(&mut eg, &mut ids, steps);
    (eg, ids)
}

/// The Fig. 1 rule suite plus a strength-reduction rule, exercising
/// literal payloads and multi-level patterns. (No commutativity — paired
/// with `assoc` it would mint fresh divisions forever and never saturate.)
fn math_rules() -> Vec<Rewrite<Math>> {
    vec![
        Rewrite::rewrite(
            "assoc",
            pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
        ),
        Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
        Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
        Rewrite::rewrite("mul-two-shl", pmul(pvar("a"), n(2)), pshl(pvar("a"), n(1))),
    ]
}

/// Patterns from the rule suite's left-hand sides (plus a bare variable),
/// used to cross-check the two matchers directly.
fn probe_patterns() -> Vec<Pattern<Math>> {
    vec![
        pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
        pmul(pvar("a"), pvar("b")),
        pmul(pvar("a"), pvar("a")),
        pdiv(n(2), n(2)),
        pmul(pvar("a"), n(1)),
        pmul(pvar("a"), n(2)),
        pvar("e"),
    ]
}

/// Asserts two match lists are equal as sets of `(root, subst)`.
fn assert_same_matches(naive: &[(Id, Subst)], indexed: &[(Id, Subst)], ctx: &str) {
    assert_eq!(naive.len(), indexed.len(), "{ctx}: match count differs");
    for m in naive {
        assert!(indexed.contains(m), "{ctx}: indexed matcher missed {m:?}");
    }
    for m in indexed {
        assert!(naive.contains(m), "{ctx}: indexed matcher invented {m:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn op_index_consistent_under_random_workouts(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 80),
    ) {
        let (eg, _) = replay(&steps);
        // check_op_index panics if the maintained index differs anywhere
        // from a from-scratch recomputation over the class table;
        // check_op_epochs pins the op-keyed row invariants (row keys ==
        // node operators, class epoch == max row, rows log-covered).
        eg.check_op_index();
        eg.check_op_epochs();
    }

    #[test]
    fn indexed_matcher_equals_naive_on_random_graphs(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
    ) {
        let (eg, _) = replay(&steps);
        for pat in probe_patterns() {
            let naive = pat.search(&eg);
            let indexed = pat.compile().search(&eg);
            assert_same_matches(&naive, &indexed, &format!("{pat:?}"));
        }
    }

    #[test]
    fn saturation_agrees_between_matchers(
        steps in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 40),
    ) {
        // Saturate two copies of the same graph — the indexed matcher with
        // op-keyed deltas and the naive matcher — and compare the
        // resulting e-graphs and extracted terms.
        let (mut fast, ids) = replay(&steps);
        let mut naive = fast.clone();
        let runner = Runner::new(16, 20_000);
        let rules = math_rules();
        let r1 = runner.run_to_fixpoint(&mut fast, &rules);
        let r2 = runner
            .with_naive_matcher(true)
            .run_to_fixpoint(&mut naive, &rules);
        prop_assert_eq!(r1.saturated, r2.saturated);
        prop_assert_eq!(r1.nodes, r2.nodes, "node counts diverged");
        prop_assert_eq!(r1.classes, r2.classes, "class counts diverged");
        fast.check_op_epochs();
        // Same equivalences between all tracked ids.
        for &x in &ids {
            for &y in &ids {
                prop_assert_eq!(
                    fast.find(x) == fast.find(y),
                    naive.find(x) == naive.find(y),
                    "equivalence of {} and {} diverged", x, y
                );
            }
        }
        // Same extraction costs from every root, and each fast-path
        // extraction must be a member of the naive path's equivalent class
        // (ids are numbered differently between runs, so equal-cost ties
        // can break toward different — equally minimal — representatives).
        let fast_results: Vec<_> = {
            let ex = WorklistExtractor::new(&fast, AstSize);
            ids.iter()
                .map(|&x| ex.cost_of(x).map(|c| (c, ex.extract(x))))
                .collect()
        };
        let naive_costs: Vec<_> = {
            let ex = WorklistExtractor::new(&naive, AstSize);
            ids.iter().map(|&x| ex.cost_of(x)).collect()
        };
        for ((&x, fast_result), naive_cost) in
            ids.iter().zip(&fast_results).zip(&naive_costs)
        {
            prop_assert_eq!(fast_result.as_ref().map(|(c, _)| *c), *naive_cost);
            if let Some((_, term)) = fast_result {
                let reimported = naive.add_recexpr(term);
                naive.rebuild();
                prop_assert_eq!(
                    naive.find(reimported),
                    naive.find(x),
                    "fast extraction {} is not in naive's class of {}",
                    term.to_sexp(),
                    x
                );
            }
        }
    }
}

#[test]
fn matchers_agree_after_full_math_saturation() {
    // Deterministic end-to-end: saturate Fig. 1, then cross-check every
    // probe pattern's match set on the saturated graph.
    let mut eg = EG::new();
    let a = eg.add(Math::Sym("a".into()));
    let two = eg.add(Math::Num(2));
    let m = eg.add(Math::Mul([a, two]));
    let d = eg.add(Math::Div([m, two]));
    let report = Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &math_rules());
    assert!(report.saturated);
    assert_eq!(eg.find(d), eg.find(a));
    for pat in probe_patterns() {
        let naive = pat.search(&eg);
        let indexed = pat.compile().search(&eg);
        assert_same_matches(&naive, &indexed, &format!("{pat:?}"));
    }
    eg.check_op_index();
}

/// Queries exercising every non-delta-eligible shape: pattern⋈relation,
/// relation-only, fresh-variable pattern atoms, relation-extended bindings.
fn relation_queries() -> Vec<Query<Math>> {
    vec![
        Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("good", &["y"]),
        Query { atoms: vec![] }.with_relation("pair", &["x", "y"]),
        Query::single("e", padd(pvar("x"), pvar("y"))).also("q", pmul(pvar("p"), pvar("p2"))),
        Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("pair", &["y", "z"]),
    ]
}

/// Random tuple insertions into the `good` (unary) and `pair` (binary)
/// relations, operands modulo the live id count.
fn insert_tuples(eg: &mut EG, ids: &[Id], tuples: &[(u8, u32, u32)]) {
    for &(which, x, y) in tuples {
        let pick = |v: u32| ids[v as usize % ids.len()];
        if which % 2 == 0 {
            eg.relations.insert("good", vec![pick(x)]);
        } else {
            eg.relations.insert("pair", vec![pick(x), pick(y)]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Semi-naive delta evaluation must be sound (no invented matches) and
    // complete (every match that appeared after the cutoffs is reported)
    // for relation-atom queries, under randomized graph workouts and
    // tuple insertions on both sides of the cutoff.
    #[test]
    fn semi_naive_delta_covers_new_matches(
        steps1 in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 40),
        tuples1 in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
        steps2 in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 25),
        tuples2 in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
    ) {
        let (mut eg, mut ids) = replay(&steps1);
        insert_tuples(&mut eg, &ids, &tuples1);
        eg.rebuild();
        let queries = relation_queries();
        let compiled: Vec<_> = queries.iter().map(Query::compile).collect();
        for c in &compiled {
            prop_assert!(!c.delta_eligible(), "these queries must need semi-naive");
        }
        let before: Vec<Vec<Subst>> = compiled.iter().map(|c| c.search(&eg)).collect();
        let epoch_cutoff = eg.bump_epoch();
        let rel_cutoff = eg.relations.tick();

        apply_steps(&mut eg, &mut ids, &steps2);
        insert_tuples(&mut eg, &ids, &tuples2);
        eg.rebuild();

        let mut scratch = MatchScratch::new();
        for ((query, c), before) in queries.iter().zip(&compiled).zip(&before) {
            let full = c.search(&eg);
            let naive = query.search(&eg);
            assert_same_matches(
                &full.iter().map(|s| (Id(0), s.clone())).collect::<Vec<_>>(),
                &naive.iter().map(|s| (Id(0), s.clone())).collect::<Vec<_>>(),
                "full vs naive",
            );
            let delta = c.search_delta(&eg, epoch_cutoff, rel_cutoff, &mut scratch);
            for m in &delta {
                prop_assert!(full.contains(m), "delta invented {m:?}");
            }
            for m in &full {
                if !before.contains(m) {
                    prop_assert!(
                        delta.contains(m),
                        "semi-naive missed the new match {m:?}"
                    );
                }
            }
        }
        eg.check_op_epochs();
    }
}

#[test]
fn scheduler_semi_naive_finds_late_tuples_without_full_research() {
    // The main rule joins against a relation that is *empty* when the rule
    // first (full-)searches; a second rule derives the tuple afterwards.
    // The scheduler must surface the join match purely through the
    // semi-naive delta rounds — no second full search.
    let mut eg = EG::new();
    let a = eg.add(Math::Sym("a".into()));
    let two = eg.add(Math::Num(2));
    let m = eg.add(Math::Mul([a, two]));
    let main = Rewrite::<Math>::rule(
        "mark-good-products",
        Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("good", &["y"]),
        Box::new(|eg, s| {
            let e = hb_egraph::rewrite::bound(s, "e");
            eg.relations.insert("marked", vec![e])
        }),
    )
    .assume_pure();
    let derive = Rewrite::<Math>::rule(
        "two-is-good",
        Query::single("e", n(2)),
        Box::new(|eg, s| {
            let e = hb_egraph::rewrite::bound(s, "e");
            eg.relations.insert("good", vec![e])
        }),
    )
    .assume_pure();
    // Order matters: `main` searches before `good` is populated.
    let report = Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &[main, derive]);
    assert!(report.saturated);
    assert!(
        eg.relations.contains("marked", &[eg.find(m)]),
        "the late-tuple join match was missed"
    );
    assert_eq!(
        report.full_searches, 2,
        "only each rule's first search may be full"
    );
    assert!(
        report.delta_searches >= 2,
        "later passes must run as delta probes"
    );
}

#[test]
fn untouched_op_rows_are_not_probed() {
    // Epoch exactness, counter-based: a class holding both a Mul and a Div
    // node sees a change under its Mul subtree only. The Div-rooted
    // query's op-keyed delta probe must visit zero rows even though the
    // class is modified and contains a Div node, while the Mul-rooted
    // probe must visit the changed rows.
    let mut eg = EG::new();
    let two = eg.add(Math::Num(2));
    let three = eg.add(Math::Num(3));
    let mut mul_roots = Vec::new();
    for i in 0..8 {
        let a = eg.add(Math::Sym(format!("a{i}")));
        let b = eg.add(Math::Sym(format!("b{i}")));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, three]));
        eg.union(m, d); // every class holds a Mul node and a Div node
        mul_roots.push((a, m));
    }
    eg.rebuild();
    let q_mul = Query::single("e", pmul(pvar("x"), pvar("y"))).compile();
    let q_div = Query::single("e", pdiv(pvar("x"), pvar("y"))).compile();
    let cutoff = eg.bump_epoch();
    let rel_cutoff = eg.relations.tick();
    // One change, strictly under one class's Mul subtree.
    let c = eg.add(Math::Sym("c".into()));
    eg.union(mul_roots[0].0, c);
    eg.rebuild();

    let mut scratch = MatchScratch::new();
    let _ = q_div.search_delta(&eg, cutoff, rel_cutoff, &mut scratch);
    let (div_probed, _) = scratch.take_probe_counters();
    assert_eq!(
        div_probed, 0,
        "no Div row changed — the op-keyed Div probe must visit nothing"
    );
    assert!(
        eg.modified_since(cutoff).contains(&eg.find(mul_roots[0].1)),
        "the multi-op class itself was modified"
    );
    let _ = q_mul.search_delta(&eg, cutoff, rel_cutoff, &mut scratch);
    let (mul_probed, _) = scratch.take_probe_counters();
    assert!(
        mul_probed > 0,
        "the changed Mul row must be probed under op-keyed tracking"
    );
    eg.check_op_epochs();
}

#[test]
fn op_keyed_runner_skips_untouched_op_rows() {
    // Runner-level exactness: multi-op classes u_i hold a Mul node and a
    // Div node with disjoint subtrees. A rule that only changes the Div
    // side's shared leaf (`3` gains a Div node) restamps the u_i through
    // their Div parent nodes alone, so the Mul-rooted rule's delta probes
    // must visit zero rows — even though every u_i was modified and
    // contains a Mul node.
    let mut eg = EG::new();
    let two = eg.add(Math::Num(2));
    let three = eg.add(Math::Num(3));
    for i in 0..8 {
        let a = eg.add(Math::Sym(format!("a{i}")));
        let b = eg.add(Math::Sym(format!("b{i}")));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, three]));
        eg.union(m, d);
    }
    eg.rebuild();
    let rules: Vec<Rewrite<Math>> = vec![
        // Never fires; its delta probes of the Mul rows are under test.
        // Runs first so the Div-side change below lands *after* its first
        // full search and must be covered by its delta window.
        Rewrite::rewrite("mul-one", pmul(pvar("x"), n(1)), pvar("x")),
        // Never fires; keeps a Div-rooted probe in the mix for realism.
        Rewrite::rewrite("div-threes", pdiv(n(3), n(3)), n(1)),
        // Fires once: `3` ≡ `3/1`, a change strictly on the Div side.
        Rewrite::rewrite("three-div-one", n(3), pdiv(n(3), n(1))),
    ];
    let sink = Arc::new(CollectingSink::new());
    let report = Runner::new(16, 20_000)
        .with_profile_sink(Arc::clone(&sink) as Arc<dyn ProfileSink>)
        .run_to_fixpoint(&mut eg, &rules);
    assert!(report.saturated);
    assert!(report.delta_searches > 0, "later passes must run as deltas");
    let probed = |rule: &str| -> usize {
        sink.samples()
            .iter()
            .filter(|s| s.rule == rule)
            .map(|s| s.probed_rows)
            .sum()
    };
    assert_eq!(
        probed("mul-one"),
        0,
        "no Mul row changed — the Mul-rooted rule's delta probes must visit nothing"
    );
    assert!(
        probed("div-threes") > 0,
        "the changed Div rows must be probed"
    );
    eg.check_op_epochs();
}

#[test]
fn compaction_is_deterministic_and_exact() {
    // Regression: modification-log compaction builds its max-epoch map in
    // a HashMap; the compacted log must be fully ordered by (epoch, id)
    // so delta replay never depends on hash-iteration order. Two replicas
    // of the same workout use independently seeded HashMaps, so any
    // order leak diverges their probe results.
    let mul_key = Math::Mul([Id(0), Id(0)]).op_key();
    let build = || {
        let mut eg = EG::new();
        let two = eg.add(Math::Num(2));
        // A Mul chain deep enough that every union propagates ~40 epochs.
        let mut chain = vec![eg.add(Math::Sym("x".into()))];
        for _ in 0..40 {
            let top = *chain.last().unwrap();
            chain.push(eg.add(Math::Mul([top, two])));
        }
        eg.rebuild();
        let mut cutoffs = Vec::new();
        // Enough stamped epochs that rebuild compacts the logs repeatedly.
        for i in 0..60 {
            cutoffs.push(eg.bump_epoch());
            let s = eg.add(Math::Sym(format!("s{i}")));
            eg.union(s, chain[0]);
            eg.rebuild();
        }
        (eg, cutoffs)
    };
    let (a, cutoffs_a) = build();
    let (b, cutoffs_b) = build();
    assert_eq!(cutoffs_a, cutoffs_b, "replicas must replay identically");
    for &cutoff in &cutoffs_a {
        assert_eq!(
            a.modified_since(cutoff),
            b.modified_since(cutoff),
            "global log diverged between replicas at cutoff {cutoff}"
        );
        assert_eq!(
            a.modified_candidates_for(mul_key, cutoff),
            b.modified_candidates_for(mul_key, cutoff),
            "per-op log diverged between replicas at cutoff {cutoff}"
        );
        // Exactness after compaction: the whole chain was restamped after
        // every cutoff, so every chain class must still be reported.
        assert_eq!(
            a.modified_candidates_for(mul_key, cutoff).len(),
            40,
            "compaction lost chain entries at cutoff {cutoff}"
        );
    }
    a.check_op_epochs();
    b.check_op_epochs();
}

#[test]
fn delta_runner_skips_saturated_phases_but_finds_late_matches() {
    // After saturation, feeding a brand-new term into the graph must be
    // picked up by the (delta) runner on the next call.
    let mut eg = EG::new();
    let a = eg.add(Math::Sym("a".into()));
    let two = eg.add(Math::Num(2));
    let m = eg.add(Math::Mul([a, two]));
    let _d = eg.add(Math::Div([m, two]));
    let rules = math_rules();
    let runner = Runner::new(16, 20_000);
    let first = runner.run_to_fixpoint(&mut eg, &rules);
    assert!(first.saturated);
    // New work arrives.
    let b = eg.add(Math::Sym("b".into()));
    let mb = eg.add(Math::Mul([b, two]));
    let second = runner.run_to_fixpoint(&mut eg, &rules);
    assert!(second.saturated);
    // mul-two-shl must have fired on the new product.
    let one = eg.add(Math::Num(1));
    let shifted = eg.lookup(&Math::Shl([b, one]));
    assert_eq!(shifted, Some(eg.find(mb)), "late-arriving match was missed");
}
