//! Rules: queries (conjunctions of patterns and relation atoms), guards and
//! appliers — the engine's equivalent of egglog's `rewrite` and `rule`.
//!
//! Every [`Rewrite`] compiles its [`Query`] once at construction into a
//! [`CompiledQuery`] (interned variables, precomputed operator keys), which
//! is what [`Rewrite::run`] searches with. The uncompiled
//! [`Query::search`] is retained as the naive reference implementation for
//! equivalence tests and benchmarking.
//!
//! ## Delta search
//!
//! [`CompiledQuery::search_delta`] finds every match that did not exist
//! when the caller's cutoffs were recorded. Two regimes:
//!
//! * **single-root** queries (every enumeration descends from the first
//!   pattern atom's root — see [`CompiledQuery::delta_eligible`]) probe
//!   only the classes modified since the epoch cutoff, in one round;
//! * everything else — joins with relation atoms or fresh-variable pattern
//!   atoms — is evaluated **semi-naively**: one round per atom, where round
//!   `i` restricts atom `i` to its *delta* (classes modified since the
//!   epoch cutoff for pattern atoms, tuples changed since the relation tick
//!   for relation atoms — see [`crate::relation::Relations::tuples_since`])
//!   and every other atom to its full extent. A new match must use at
//!   least one new atom-match, so the union of the rounds covers exactly
//!   the new matches; rounds over a quiescent graph and relation store are
//!   all empty and cost nearly nothing, where these queries previously
//!   re-ran a full join every pass.
//!
//! Delta probes are **keyed by the atom's root operator**: an op-rooted
//! atom enumerates only classes whose `(class, op_key)` rows changed
//! ([`crate::egraph::EGraph::modified_candidates_for`]), so activity
//! confined to other operators — even in this atom's transitive ancestors
//! — costs it nothing. Every probe records how many candidate rows it
//! visited vs. skipped into the [`MatchScratch`] counters.

use std::sync::Arc;

use crate::egraph::{Analysis, EGraph};
use crate::language::Language;
use crate::pattern::{CompiledNode, MatchScratch, Pattern, Subst};
use crate::unionfind::Id;

/// One atom of a rule's query.
pub enum Atom<L> {
    /// `(= var pattern)`: the class bound to `var` (or every class, if `var`
    /// is unbound so far) must contain a term matching `pattern`.
    Pat {
        /// Variable naming the matched class.
        var: String,
        /// Pattern the class must contain.
        pattern: Pattern<L>,
    },
    /// `(relation v1 v2 …)`: the tuple of classes bound to the variables
    /// must be in the relation; unbound variables enumerate.
    Rel {
        /// Relation name.
        name: String,
        /// Variable names, one per column.
        vars: Vec<String>,
    },
}

/// A conjunctive query: atoms are solved left to right.
pub struct Query<L> {
    /// Conjuncts.
    pub atoms: Vec<Atom<L>>,
}

impl<L: Language> Query<L> {
    /// Query with a single root pattern bound to `var`.
    #[must_use]
    pub fn single(var: &str, pattern: Pattern<L>) -> Self {
        Query {
            atoms: vec![Atom::Pat {
                var: var.to_string(),
                pattern,
            }],
        }
    }

    /// Adds a `(= var pattern)` atom.
    #[must_use]
    pub fn also(mut self, var: &str, pattern: Pattern<L>) -> Self {
        self.atoms.push(Atom::Pat {
            var: var.to_string(),
            pattern,
        });
        self
    }

    /// Adds a relation atom.
    #[must_use]
    pub fn with_relation(mut self, name: &str, vars: &[&str]) -> Self {
        self.atoms.push(Atom::Rel {
            name: name.to_string(),
            vars: vars.iter().map(|v| (*v).to_string()).collect(),
        });
        self
    }

    /// Compiles the query: interns every variable (shared across atoms)
    /// and precomputes pattern operator keys.
    #[must_use]
    pub fn compile(&self) -> CompiledQuery<L> {
        let mut vars: Vec<String> = Vec::new();
        let intern = Pattern::<L>::intern;
        // Delta-eligibility: a *single* delta probe at the first atom's
        // root is sound when the only *enumeration* of classes happens
        // there. That is the case when every atom is a pattern and every
        // atom after the first constrains a variable some earlier atom
        // already bound (all bindings then descend from the first root,
        // and epoch propagation marks that root whenever any of them
        // changes). A relation atom or a fresh-variable pattern atom
        // enumerates globally — not eligible; those queries are delta-
        // evaluated semi-naively instead (see `search_delta`).
        let mut delta_eligible = !self.atoms.is_empty();
        let atoms: Vec<CompiledAtom<L>> = self
            .atoms
            .iter()
            .enumerate()
            .map(|(i, atom)| match atom {
                Atom::Pat { var, pattern } => {
                    let vars_before = vars.len();
                    let slot = intern(&mut vars, var);
                    if i > 0 && (slot as usize) >= vars_before {
                        delta_eligible = false;
                    }
                    let node = pattern.compile_into(&mut vars);
                    CompiledAtom::Pat { slot, node }
                }
                Atom::Rel { name, vars: cols } => {
                    delta_eligible = false;
                    CompiledAtom::Rel {
                        name: name.clone(),
                        slots: cols.iter().map(|v| intern(&mut vars, v)).collect(),
                    }
                }
            })
            .collect();
        CompiledQuery {
            vars: Arc::new(vars),
            atoms,
            delta_eligible,
        }
    }

    /// Enumerates all substitutions satisfying the query.
    ///
    /// Naive reference implementation (string-keyed binding, full class
    /// iteration); the engine's hot path is [`CompiledQuery::search`].
    #[must_use]
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<Subst> {
        let mut substs = vec![Subst::new()];
        for atom in &self.atoms {
            let mut next = Vec::new();
            match atom {
                Atom::Pat { var, pattern } => {
                    for s in &substs {
                        if let Some(id) = s.get(var) {
                            for mut m in pattern.search_class(egraph, id, s) {
                                // Root var already bound; keep it.
                                let ok = m.bind(var, egraph.find(id));
                                debug_assert!(ok);
                                next.push(m);
                            }
                        } else {
                            // Sorted enumeration: class-map iteration order
                            // is seeded per process; sorting makes the
                            // reference matcher's match *order* (and hence
                            // equal-cost extraction tie-breaks downstream)
                            // reproducible across runs.
                            let mut ids: Vec<Id> = egraph.classes().map(|c| c.id).collect();
                            ids.sort_unstable();
                            for id in ids {
                                for mut m in pattern.search_class(egraph, id, s) {
                                    if m.bind(var, egraph.find(id)) {
                                        next.push(m);
                                    }
                                }
                            }
                        }
                    }
                }
                Atom::Rel { name, vars } => {
                    for s in &substs {
                        for tuple in egraph.relations.tuples(name) {
                            if tuple.len() != vars.len() {
                                continue;
                            }
                            let mut m = s.clone();
                            let mut ok = true;
                            for (v, &id) in vars.iter().zip(tuple.iter()) {
                                if !m.bind(v, egraph.find(id)) {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                next.push(m);
                            }
                        }
                    }
                }
            }
            substs = next;
            if substs.is_empty() {
                break;
            }
        }
        substs
    }
}

/// A compiled atom: variables as slots into the query's table.
enum CompiledAtom<L> {
    Pat { slot: u32, node: CompiledNode<L> },
    Rel { name: String, slots: Vec<u32> },
}

/// How a search pass restricts its enumerations (see the module docs).
#[derive(Clone, Copy)]
enum Restrict {
    /// Full join over every atom.
    Full,
    /// Single-root delta: unbound-root enumeration probes only classes
    /// whose root-operator rows were stamped at or after the epoch (sound
    /// for delta-eligible queries, whose only enumeration is the first
    /// atom's root).
    Root(u64),
    /// One semi-naive round: atom `index` is restricted to its delta
    /// (classes modified at/after `epoch` for pattern atoms, tuples
    /// changed after `rel_tick` for relation atoms); every other atom
    /// joins in full.
    Atom {
        index: usize,
        epoch: u64,
        rel_tick: u64,
    },
}

/// A [`Query`] compiled for the indexed matcher: one shared variable table,
/// patterns with interned slots and precomputed op keys.
pub struct CompiledQuery<L> {
    vars: Arc<Vec<String>>,
    atoms: Vec<CompiledAtom<L>>,
    delta_eligible: bool,
}

impl<L: Language> CompiledQuery<L> {
    /// Whether a *single* delta probe at the first atom's root soundly
    /// finds every new match: true when all bindings descend from that
    /// root. Queries where this is false (relation atoms, fresh-variable
    /// pattern atoms) still support delta search, via the semi-naive
    /// rounds of [`CompiledQuery::search_delta`].
    #[must_use]
    pub fn delta_eligible(&self) -> bool {
        self.delta_eligible
    }

    /// Enumerates all substitutions satisfying the query, using the
    /// operator index for root enumeration. Same result set as
    /// [`Query::search`].
    #[must_use]
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<Subst> {
        self.search_with(egraph, &mut MatchScratch::new())
    }

    /// [`CompiledQuery::search`] with a caller-provided scratch arena.
    #[must_use]
    pub fn search_with<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        scratch: &mut MatchScratch,
    ) -> Vec<Subst> {
        let rows = self.search_rows(egraph, &Restrict::Full, scratch);
        self.rows_to_substs(rows)
    }

    /// Like [`CompiledQuery::search`], but for delta-eligible queries the
    /// root enumeration only probes classes whose root-operator rows were
    /// stamped at or after `cutoff` — the classes whose match sets can
    /// have changed since the epoch was recorded (see
    /// [`EGraph::bump_epoch`]). For non-eligible queries this is a full
    /// search; use [`CompiledQuery::search_delta`] to get semi-naive
    /// evaluation for those.
    #[must_use]
    pub fn search_since<N: Analysis<L>>(&self, egraph: &EGraph<L, N>, cutoff: u64) -> Vec<Subst> {
        let restrict = if self.delta_eligible {
            Restrict::Root(cutoff)
        } else {
            Restrict::Full
        };
        let rows = self.search_rows(egraph, &restrict, &mut MatchScratch::new());
        self.rows_to_substs(rows)
    }

    /// Every match that did not exist when the cutoffs were recorded:
    /// `epoch_cutoff` from [`EGraph::bump_epoch`], `rel_cutoff` from
    /// [`crate::relation::Relations::tick`]. Single delta probe for
    /// delta-eligible queries; semi-naive rounds (one per atom) otherwise.
    /// May return a match that already existed (delta probes
    /// over-approximate); appliers are idempotent, so re-applying is
    /// harmless.
    ///
    /// Semi-naive evaluation: round `i` restricts atom `i` to its delta,
    /// and the join *starts* from that delta (the restricted atom is
    /// evaluated first), so a round costs work proportional to its delta —
    /// not a full re-join. A match is found by round `i` iff atom `i`'s
    /// contribution is new, so the union over rounds covers every new
    /// match; duplicates (matches with several new atoms) are deduplicated
    /// by a deterministic sort. Rounds whose delta is provably empty are
    /// skipped outright, which is what makes quiescent passes free.
    #[must_use]
    pub fn search_delta<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        epoch_cutoff: u64,
        rel_cutoff: u64,
        scratch: &mut MatchScratch,
    ) -> Vec<Subst> {
        if self.delta_eligible {
            let rows = self.search_rows(egraph, &Restrict::Root(epoch_cutoff), scratch);
            return self.rows_to_substs(rows);
        }
        let classes_dirty = egraph.any_modified_since(epoch_cutoff);
        let rels_dirty = egraph.relations.tick() > rel_cutoff;
        if !classes_dirty && !rels_dirty {
            return Vec::new();
        }
        let mut rows: Vec<Vec<Option<Id>>> = Vec::new();
        for (index, atom) in self.atoms.iter().enumerate() {
            let delta_nonempty = match atom {
                CompiledAtom::Pat { .. } => classes_dirty,
                CompiledAtom::Rel { name, .. } => {
                    rels_dirty && egraph.relations.changed_since(name, rel_cutoff)
                }
            };
            if !delta_nonempty {
                continue;
            }
            let restrict = Restrict::Atom {
                index,
                epoch: epoch_cutoff,
                rel_tick: rel_cutoff,
            };
            rows.extend(self.search_rows(egraph, &restrict, scratch));
        }
        self.dedup_round_rows(&mut rows, scratch);
        self.rows_to_substs(rows)
    }

    /// The deterministic merge of the semi-naive rounds: a total-order
    /// sort over the accumulated round rows followed by adjacent dedup
    /// (matches found by several rounds appear once), so the merged result
    /// is a pure function of the match *set*.
    fn dedup_round_rows(&self, rows: &mut Vec<Vec<Option<Id>>>, scratch: &mut MatchScratch) {
        rows.sort_unstable();
        rows.dedup_by(|a, b| {
            if a == b {
                // `a` is the one removed: reclaim its buffer.
                scratch.give_row(std::mem::take(a));
                true
            } else {
                false
            }
        });
    }

    fn rows_to_substs(&self, rows: Vec<Vec<Option<Id>>>) -> Vec<Subst> {
        rows.into_iter()
            .map(|b| Subst::from_bindings(Arc::clone(&self.vars), b))
            .collect()
    }

    /// The join loop shared by every search mode.
    #[allow(clippy::too_many_lines)]
    fn search_rows<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        restrict: &Restrict,
        scratch: &mut MatchScratch,
    ) -> Vec<Vec<Option<Id>>> {
        debug_assert!(egraph.is_clean(), "search requires a rebuilt e-graph");
        let nvars = self.vars.len();
        let mut partials = scratch.take_list();
        partials.push(scratch.blank_row(nvars));
        let mut next = scratch.take_list();
        // Atom evaluation order: a conjunctive join is order-independent in
        // its result, so a semi-naive round starts from its delta atom and
        // the remaining atoms filter/extend from there — the round's cost
        // scales with the delta, not the full join.
        let delta_first = match restrict {
            Restrict::Atom { index, .. } => Some(*index),
            _ => None,
        };
        let order = delta_first
            .into_iter()
            .chain((0..self.atoms.len()).filter(|&j| Some(j) != delta_first));
        for i in order {
            let atom = &self.atoms[i];
            match atom {
                CompiledAtom::Pat { slot, node } => {
                    let slot = *slot as usize;
                    // `enum_cutoff` limits this atom's unbound-root
                    // enumeration to modified classes. A delta-restricted
                    // pattern atom always evaluates first (on the single
                    // all-unbound seed row), so restricting the enumeration
                    // is the whole restriction — its root slot cannot be
                    // bound yet.
                    let enum_cutoff = match restrict {
                        Restrict::Full => None,
                        Restrict::Root(cut) => Some(*cut),
                        Restrict::Atom { index, epoch, .. } if *index == i => Some(*epoch),
                        Restrict::Atom { .. } => None,
                    };
                    let mut step = scratch.take_list();
                    // Sorted full enumeration for variable-rooted patterns,
                    // computed at most once per atom (not per partial).
                    let mut all_ids: Option<Vec<Id>> = None;
                    for p in partials.iter() {
                        if let Some(id) = p[slot] {
                            debug_assert!(
                                !matches!(restrict, Restrict::Atom { index, .. } if *index == i),
                                "delta atom is evaluated first; its root is never pre-bound"
                            );
                            node.match_class(egraph, id, p, &mut next, scratch);
                        } else {
                            let visit =
                                |root: Id,
                                 step: &mut Vec<Vec<Option<Id>>>,
                                 next: &mut Vec<Vec<Option<Id>>>,
                                 scratch: &mut MatchScratch| {
                                    node.match_class(egraph, root, p, step, scratch);
                                    for mut m in step.drain(..) {
                                        match m[slot] {
                                            Some(existing) if existing != root => {
                                                scratch.give_row(m);
                                                continue;
                                            }
                                            _ => m[slot] = Some(root),
                                        }
                                        next.push(m);
                                    }
                                };
                            if let Some(cut) = enum_cutoff {
                                // Delta probe, keyed by the atom's root
                                // operator: O(changes to that op's rows)
                                // via the per-op log, zero when the op was
                                // quiet.
                                let (roots, universe) = match node.root_key() {
                                    Some(key) => (
                                        egraph.modified_candidates_for(key, cut),
                                        egraph.candidates_for(key).len(),
                                    ),
                                    None => (egraph.modified_since(cut), egraph.num_classes()),
                                };
                                scratch.record_probe(roots.len(), universe);
                                for root in roots {
                                    visit(root, &mut step, &mut next, scratch);
                                }
                            } else {
                                match node.root_key() {
                                    Some(key) => {
                                        for &root in egraph.candidates_for(key) {
                                            visit(root, &mut step, &mut next, scratch);
                                        }
                                    }
                                    None => {
                                        let ids = all_ids.get_or_insert_with(|| {
                                            let mut ids: Vec<Id> =
                                                egraph.classes().map(|c| c.id).collect();
                                            ids.sort_unstable();
                                            ids
                                        });
                                        for &id in ids.iter() {
                                            visit(id, &mut step, &mut next, scratch);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    scratch.give_list(step);
                }
                CompiledAtom::Rel { name, slots } => {
                    let rel_cutoff = match restrict {
                        Restrict::Atom {
                            index, rel_tick, ..
                        } if *index == i => Some(*rel_tick),
                        _ => None,
                    };
                    for p in partials.iter() {
                        let tuples: Box<dyn Iterator<Item = &Vec<Id>>> = match rel_cutoff {
                            Some(t) => Box::new(egraph.relations.tuples_since(name, t)),
                            None => Box::new(egraph.relations.tuples(name)),
                        };
                        'tuples: for tuple in tuples {
                            if tuple.len() != slots.len() {
                                continue;
                            }
                            // Pre-filter on already-bound slots so a
                            // mismatching tuple costs no allocation.
                            for (&slot, &id) in slots.iter().zip(tuple.iter()) {
                                if let Some(existing) = p[slot as usize] {
                                    if existing != egraph.find(id) {
                                        continue 'tuples;
                                    }
                                }
                            }
                            let mut m = scratch.row_from(p);
                            for (&slot, &id) in slots.iter().zip(tuple.iter()) {
                                let id = egraph.find(id);
                                match m[slot as usize] {
                                    // Nonlinear tuple variables can still
                                    // conflict within this pass.
                                    Some(existing) if existing != id => {
                                        scratch.give_row(m);
                                        continue 'tuples;
                                    }
                                    _ => m[slot as usize] = Some(id),
                                }
                            }
                            next.push(m);
                        }
                    }
                }
            }
            for row in partials.drain(..) {
                scratch.give_row(row);
            }
            std::mem::swap(&mut partials, &mut next);
            if partials.is_empty() {
                break;
            }
        }
        scratch.give_list(next);
        partials
    }
}

/// Guard predicate evaluated on each match before application.
pub type Guard<L, N> = Box<dyn Fn(&EGraph<L, N>, &Subst) -> bool + Send + Sync>;

/// Action run on each surviving match; returns whether the e-graph changed.
pub type ApplyFn<L, N> = Box<dyn Fn(&mut EGraph<L, N>, &Subst) -> bool + Send + Sync>;

/// A named rule: query → guard → action.
pub struct Rewrite<L: Language, N: Analysis<L> = ()> {
    /// Rule name (for reports).
    pub name: String,
    /// Query side (uncompiled — the naive reference path).
    pub query: Query<L>,
    /// Compiled query (the indexed path [`Rewrite::run`] uses).
    pub compiled: CompiledQuery<L>,
    /// Optional guard (`:when` clauses).
    pub guard: Option<Guard<L, N>>,
    /// Action side.
    pub applier: ApplyFn<L, N>,
    /// Whether the engine *knows* the guard/applier read nothing beyond the
    /// matched classes (true for guard-less [`Rewrite::rewrite`] rules,
    /// whose applier is the internal instantiate-and-union). Pure rules
    /// skip the scheduler's relations-version fallback for delta search.
    pub(crate) known_pure: bool,
}

impl<L: Language + 'static, N: Analysis<L>> Rewrite<L, N> {
    /// A `rewrite lhs => rhs` rule: matches `lhs` anywhere and unions the
    /// matched class with the instantiated `rhs`.
    #[allow(clippy::self_named_constructors)] // egg's established API name
    pub fn rewrite(name: &str, lhs: Pattern<L>, rhs: Pattern<L>) -> Self {
        Self::rewrite_when(name, lhs, rhs, None)
    }

    /// A conditional rewrite (egglog's `:when`).
    pub fn rewrite_when(
        name: &str,
        lhs: Pattern<L>,
        rhs: Pattern<L>,
        guard: Option<Guard<L, N>>,
    ) -> Self {
        let root = "$root".to_string();
        let rhs2 = rhs;
        let known_pure = guard.is_none();
        let mut rw = Self::rule_when(
            name,
            Query::single(&root, lhs),
            guard,
            Box::new(move |egraph, subst| {
                let root_id = subst.get("$root").expect("root bound by query");
                let new_id = rhs2.instantiate(egraph, subst);
                egraph.union(root_id, new_id).1
            }),
        );
        rw.known_pure = known_pure;
        rw
    }

    /// A general rule with an arbitrary action.
    pub fn rule(name: &str, query: Query<L>, applier: ApplyFn<L, N>) -> Self {
        Self::rule_when(name, query, None, applier)
    }

    fn rule_when(
        name: &str,
        query: Query<L>,
        guard: Option<Guard<L, N>>,
        applier: ApplyFn<L, N>,
    ) -> Self {
        let compiled = query.compile();
        Rewrite {
            name: name.to_string(),
            query,
            compiled,
            guard,
            applier,
            known_pure: false,
        }
    }

    /// Attaches a guard.
    #[must_use]
    pub fn with_guard(mut self, guard: Guard<L, N>) -> Self {
        self.guard = Some(guard);
        self.known_pure = false;
        self
    }

    /// Promises the engine that this rule's guard and applier depend only
    /// on the matched classes (their e-nodes and analysis data) and the
    /// query's relation atoms — never on other classes or unrelated
    /// relation state. (Monotone *writes* — adds, unions, tuple inserts —
    /// are always fine.) The scheduler then drops the conservative
    /// relations-version fallback and may skip the rule entirely while the
    /// graph is quiescent. Every rule in this repository qualifies; rules
    /// whose appliers *read* global relation state must not call this.
    #[must_use]
    pub fn assume_pure(mut self) -> Self {
        self.known_pure = true;
        self
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Applies `matches`, honoring the guard; returns how many changed the
    /// graph.
    fn apply_matches(&self, egraph: &mut EGraph<L, N>, matches: Vec<Subst>) -> usize {
        let mut changed = 0;
        for m in matches {
            if let Some(g) = &self.guard {
                if !g(egraph, &m) {
                    continue;
                }
            }
            if (self.applier)(egraph, &m) {
                changed += 1;
            }
        }
        changed
    }

    /// Runs the rule once over the whole graph (search with the compiled,
    /// indexed matcher, then apply all matches). Returns the number of
    /// matches that changed the graph. Rebuilds first if the graph is
    /// dirty, but does **not** rebuild after applying.
    pub fn run(&self, egraph: &mut EGraph<L, N>) -> usize {
        self.run_with(egraph, &mut MatchScratch::new())
    }

    /// [`Rewrite::run`] with a caller-provided scratch arena (the scheduler
    /// holds one per saturation run).
    pub fn run_with(&self, egraph: &mut EGraph<L, N>, scratch: &mut MatchScratch) -> usize {
        if !egraph.is_clean() {
            egraph.rebuild();
        }
        let matches = self.compiled.search_with(egraph, scratch);
        self.apply_matches(egraph, matches)
    }

    /// Like [`Rewrite::run`] but with the retained naive matcher — the
    /// benchmark/reference path.
    pub fn run_naive(&self, egraph: &mut EGraph<L, N>) -> usize {
        if !egraph.is_clean() {
            egraph.rebuild();
        }
        let matches = self.query.search(egraph);
        self.apply_matches(egraph, matches)
    }

    /// Delta run: searches only classes modified at or after `cutoff`
    /// (falling back to a full search for non-delta-eligible queries).
    /// The caller is responsible for `cutoff` bookkeeping — see
    /// `schedule::Runner`.
    pub fn run_since(&self, egraph: &mut EGraph<L, N>, cutoff: u64) -> usize {
        if !egraph.is_clean() {
            egraph.rebuild();
        }
        let matches = self.compiled.search_since(egraph, cutoff);
        self.apply_matches(egraph, matches)
    }

    /// Full delta run: applies every match that is new relative to the
    /// recorded cutoffs (`epoch_cutoff` from [`EGraph::bump_epoch`],
    /// `rel_cutoff` from [`crate::relation::Relations::tick`]) — single
    /// root probe for delta-eligible queries, semi-naive rounds otherwise.
    pub fn run_delta(
        &self,
        egraph: &mut EGraph<L, N>,
        epoch_cutoff: u64,
        rel_cutoff: u64,
        scratch: &mut MatchScratch,
    ) -> usize {
        if !egraph.is_clean() {
            egraph.rebuild();
        }
        let matches = self
            .compiled
            .search_delta(egraph, epoch_cutoff, rel_cutoff, scratch);
        self.apply_matches(egraph, matches)
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Whether the engine knows this rule's guard/applier depend only on
    /// the matched classes (see the field docs).
    #[must_use]
    pub fn is_known_pure(&self) -> bool {
        self.known_pure
    }
}

/// Convenience: looks up the id bound to `var`, panicking with the rule
/// context if missing.
#[must_use]
pub fn bound(subst: &Subst, var: &str) -> Id {
    subst
        .get(var)
        .unwrap_or_else(|| panic!("query did not bind ?{var}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, padd, pdiv, pmul, pvar, Math};

    type EG = EGraph<Math, ()>;

    #[test]
    fn rewrite_commutes_addition() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let ab = eg.add(Math::Add([a, b]));
        let ba = eg.add(Math::Add([b, a]));
        assert_ne!(eg.find(ab), eg.find(ba));
        let comm = Rewrite::<Math>::rewrite(
            "comm-add",
            padd(pvar("x"), pvar("y")),
            padd(pvar("y"), pvar("x")),
        );
        comm.run(&mut eg);
        eg.rebuild();
        assert_eq!(eg.find(ab), eg.find(ba));
    }

    #[test]
    fn fig1_example_a_times_2_div_2() {
        // Paper Fig. 1: rules (a×2)÷2 → a×(2÷2), 2÷2 → 1, a×1 → a.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([m, two]));

        let r1 = Rewrite::<Math>::rewrite(
            "assoc",
            pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
        );
        let r2 = Rewrite::<Math>::rewrite("div-self", pdiv(n(2), n(2)), n(1));
        let r3 = Rewrite::<Math>::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a"));

        for _ in 0..4 {
            r1.run(&mut eg);
            r2.run(&mut eg);
            r3.run(&mut eg);
            eg.rebuild();
        }
        assert_eq!(eg.find(d), eg.find(a), "(a*2)/2 must equal a");
    }

    #[test]
    fn guards_filter_matches() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        // Guarded rewrite that refuses every match.
        let never = Rewrite::<Math>::rewrite(
            "never",
            pmul(pvar("x"), pvar("y")),
            pmul(pvar("y"), pvar("x")),
        )
        .with_guard(Box::new(|_, _| false));
        assert_eq!(never.run(&mut eg), 0);
        eg.rebuild();
        let swapped = eg.lookup(&Math::Mul([two, a]));
        assert!(swapped.is_none() || swapped == Some(eg.find(m)));
    }

    #[test]
    fn multi_atom_query_with_relation() {
        // rule: (= e (x * y)) ∧ good(y)  ⇒  mark(e)
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m_good = eg.add(Math::Mul([a, two]));
        let _m_bad = eg.add(Math::Mul([a, b]));
        eg.relations.insert("good", vec![two]);

        let rule = Rewrite::<Math>::rule(
            "mark-good-products",
            Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("good", &["y"]),
            Box::new(|eg, s| {
                let e = bound(s, "e");
                eg.relations.insert("marked", vec![e])
            }),
        );
        rule.run(&mut eg);
        eg.rebuild();
        assert_eq!(eg.relations.len("marked"), 1);
        assert!(eg.relations.contains("marked", &[eg.find(m_good)]));
    }

    #[test]
    fn relation_atom_enumerates_unbound_vars() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        eg.relations.insert("pair", vec![a, b]);
        eg.relations.insert("pair", vec![b, a]);
        let q: Query<Math> = Query { atoms: vec![] };
        let q = q.with_relation("pair", &["x", "y"]);
        assert_eq!(q.search(&eg).len(), 2);
        assert_eq!(q.compile().search(&eg).len(), 2);
        // Non-linear: pair(x, x) matches nothing.
        let q2: Query<Math> = Query { atoms: vec![] };
        let q2 = q2.with_relation("pair", &["x", "x"]);
        assert_eq!(q2.search(&eg).len(), 0);
        assert_eq!(q2.compile().search(&eg).len(), 0);
    }

    #[test]
    fn bound_pattern_atom_constrains_existing_binding() {
        // (= e (x * 2)) ∧ (= x (p + q)) — second atom searched inside x.
        let mut eg = EG::new();
        let p = eg.add(Math::Sym("p".into()));
        let q = eg.add(Math::Sym("q".into()));
        let sum = eg.add(Math::Add([p, q]));
        let two = eg.add(Math::Num(2));
        let _m = eg.add(Math::Mul([sum, two]));
        let plain = eg.add(Math::Sym("z".into()));
        let _m2 = eg.add(Math::Mul([plain, two]));

        let query = Query::single("e", pmul(pvar("x"), n(2))).also("x", padd(pvar("p"), pvar("q")));
        for results in [query.search(&eg), query.compile().search(&eg)] {
            assert_eq!(results.len(), 1, "only the sum-operand product matches");
            assert_eq!(results[0].get("p"), Some(p));
            assert_eq!(results[0].get("q"), Some(q));
        }
    }

    #[test]
    fn compiled_query_matches_naive_on_all_atom_shapes() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m1 = eg.add(Math::Mul([a, two]));
        let _m2 = eg.add(Math::Mul([b, two]));
        let _s = eg.add(Math::Add([m1, b]));
        eg.relations.insert("good", vec![two]);
        eg.relations.insert("good", vec![b]);

        let queries: Vec<Query<Math>> = vec![
            Query::single("e", pmul(pvar("x"), pvar("y"))),
            Query::single("e", pmul(pvar("x"), n(2))),
            Query::single("e", pvar("e")),
            Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("good", &["y"]),
            Query::single("e", padd(pvar("x"), pvar("y"))).also("x", pmul(pvar("p"), pvar("q"))),
        ];
        for q in &queries {
            let naive = q.search(&eg);
            let compiled = q.compile().search(&eg);
            assert_eq!(naive.len(), compiled.len());
            for m in &naive {
                assert!(compiled.contains(m), "compiled missed {m:?}");
            }
        }
    }

    #[test]
    fn delta_search_sees_only_new_matches() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let _m = eg.add(Math::Mul([a, two]));
        eg.rebuild();
        let q = Query::single("e", pmul(pvar("x"), pvar("y"))).compile();
        assert!(q.delta_eligible());
        // Full search finds the existing product.
        assert_eq!(q.search(&eg).len(), 1);
        let cutoff = eg.bump_epoch();
        // Nothing changed since the cutoff: delta search is empty.
        assert!(q.search_since(&eg, cutoff).is_empty());
        // A new product appears: delta search reports exactly it.
        let b = eg.add(Math::Sym("b".into()));
        let mb = eg.add(Math::Mul([b, two]));
        eg.rebuild();
        let delta = q.search_since(&eg, cutoff);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].get("e"), Some(eg.find(mb)));
    }
}
