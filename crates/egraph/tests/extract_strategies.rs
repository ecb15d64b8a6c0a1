//! The extraction strategy API's cross-strategy contracts:
//!
//! * cyclic classes (`x = f(x)`) extract through their acyclic members
//!   under both strategies;
//! * equal-cost tie-breaks are *content*-deterministic: identical terms
//!   from differently-id'd graphs holding the same equivalences;
//! * property test: on randomized saturated graphs, every root's
//!   shared-table readout is byte-identical to the worklist readout and
//!   the two report the same cost — the oracle that lets the selector's
//!   batched mode switch strategies without changing a single output byte.

use proptest::prelude::*;

use hb_egraph::egraph::EGraph;
use hb_egraph::extract::{AstSize, Extract, SharedTableExtractor, WorklistExtractor};
use hb_egraph::math_lang::{n, pdiv, pmul, pvar, Math};
use hb_egraph::rewrite::Rewrite;
use hb_egraph::schedule::Runner;
use hb_egraph::unionfind::Id;

type EG = EGraph<Math, ()>;

/// One step of a randomized e-graph workout (see `engine.rs`).
type Step = (u8, u32, u32);

fn replay(steps: &[Step]) -> (EG, Vec<Id>) {
    let mut eg = EG::new();
    let mut ids: Vec<Id> = Vec::new();
    for s in ["a", "b", "c"] {
        ids.push(eg.add(Math::Sym(s.into())));
    }
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
    (eg, ids)
}

fn math_rules() -> Vec<Rewrite<Math>> {
    vec![
        Rewrite::rewrite(
            "assoc",
            pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
        ),
        Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
        Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
    ]
}

/// A graph where one class is cyclic (`x = x * 1` via saturation) and
/// another is cyclic by construction.
fn cyclic_graph() -> (EG, Id, Id) {
    let mut eg = EG::new();
    let x = eg.add(Math::Sym("x".into()));
    let one = eg.add(Math::Num(1));
    let fx = eg.add(Math::Mul([x, one]));
    eg.union(x, fx);
    let y = eg.add(Math::Sym("y".into()));
    let d = eg.add(Math::Div([fx, one]));
    eg.union(d, y);
    eg.rebuild();
    (eg, x, d)
}

#[test]
fn cyclic_classes_extract_under_every_strategy() {
    let (eg, x, d) = cyclic_graph();
    let strategies: Vec<Box<dyn Extract<Math> + '_>> = vec![
        Box::new(WorklistExtractor::new(&eg, AstSize)),
        Box::new(SharedTableExtractor::new(&eg, AstSize)),
    ];
    for ex in &strategies {
        let name = ex.stats().strategy;
        assert_eq!(ex.extract(x).to_sexp(), "x", "{name}");
        assert_eq!(ex.cost_of(x), Some(1), "{name}");
        assert_eq!(ex.extract(d).to_sexp(), "y", "{name}");
    }
}

/// Two graphs holding the same equivalences with ids assigned in opposite
/// orders: an equal-cost two-member class (`a * 2` vs `a << 1` under a
/// cost function pricing both at 3).
fn tied_graphs() -> (EG, Id, EG, Id) {
    let mut g1 = EG::new();
    let a = g1.add(Math::Sym("a".into()));
    let one = g1.add(Math::Num(1));
    let two = g1.add(Math::Num(2));
    let m = g1.add(Math::Mul([a, two]));
    let s = g1.add(Math::Shl([a, one]));
    g1.union(m, s);
    g1.rebuild();

    let mut g2 = EG::new();
    let a2 = g2.add(Math::Sym("a".into()));
    let one2 = g2.add(Math::Num(1));
    let s2 = g2.add(Math::Shl([a2, one2]));
    let two2 = g2.add(Math::Num(2));
    let m2 = g2.add(Math::Mul([a2, two2]));
    g2.union(s2, m2);
    g2.rebuild();
    (g1, m, g2, m2)
}

#[test]
fn tree_strategies_break_ties_by_content_across_id_orders() {
    let (g1, r1, g2, r2) = tied_graphs();
    let w1 = WorklistExtractor::new(&g1, AstSize).extract(r1);
    let w2 = WorklistExtractor::new(&g2, AstSize).extract(r2);
    assert_eq!(
        w1.to_sexp(),
        w2.to_sexp(),
        "worklist tie-break depended on id order"
    );
    let s1 = SharedTableExtractor::new(&g1, AstSize).extract(r1);
    let s2 = SharedTableExtractor::new(&g2, AstSize).extract(r2);
    assert_eq!(s1.to_sexp(), w1.to_sexp(), "shared-table diverged (g1)");
    assert_eq!(s2.to_sexp(), w2.to_sexp(), "shared-table diverged (g2)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The strategy-equivalence oracle: on randomized graphs — raw and
    // saturated — the shared-table readout of every root is byte-identical
    // to the worklist readout, at the same cost, whatever order roots are
    // read in.
    #[test]
    fn shared_table_equals_worklist_per_root(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
        saturate in 0u8..2,
    ) {
        let (mut eg, ids) = replay(&steps);
        if saturate == 1 {
            Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &math_rules());
        }
        let worklist = WorklistExtractor::new(&eg, AstSize);
        let shared = SharedTableExtractor::new(&eg, AstSize);
        for &root in &ids {
            prop_assert_eq!(worklist.cost_of(root), shared.cost_of(root));
            if worklist.cost_of(root).is_none() {
                continue;
            }
            let w = worklist.extract(root);
            let s = shared.extract(root);
            prop_assert_eq!(
                w.nodes(), s.nodes(),
                "root {}: shared-table readout diverged", root
            );
        }
    }
}
