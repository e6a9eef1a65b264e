//! Interpreted systems: knowledge over a set of runs.
//!
//! An [`InterpretedSystem`] packages a view-based knowledge interpretation
//! `I = (R, π, v)` (Halpern–Moses Section 6): a [`System`] `R`, a truth
//! assignment `π` given by named *fact* predicates over points, and a
//! [`ViewFunction`] `v`. Internally it materialises the finite Kripke
//! model whose worlds are the points of `R` and whose agent partitions are
//! induced by `v`, and it implements both [`Frame`] (static operators) and
//! [`TemporalStructure`] (the `E^ε/E^◇/E^T` and run-temporal operators of
//! Sections 11–12) for the `hm-logic` model checker.

use crate::intern::ViewInterner;
use crate::run::Run;
use crate::system::{Point, RunId, System};
use crate::view::ViewFunction;
use hm_kripke::{
    coarsest_refinement_budgeted, quotient_partitions, AgentGroup, AgentId, KripkeModel, Minimized,
    ModelBuilder, Partition, WorldId, WorldSet,
};
use hm_limits::{failpoints, Budget, LimitExceeded, Phase};
use hm_logic::{evaluate, AtomTable, EvalError, Formula, Frame, TemporalStructure};

/// A fact predicate: the truth of a ground atom at each point of a run.
pub type FactFn = Box<dyn Fn(&Run, u64) -> bool>;

/// Builder for [`InterpretedSystem`] (C-BUILDER).
pub struct InterpretedSystemBuilder {
    system: System,
    view: Box<dyn ViewFunction>,
    facts: Vec<(String, FactFn)>,
    minimize: bool,
    budget: Budget,
}

impl InterpretedSystemBuilder {
    /// Declares a ground atom `name` true at the points where `fact`
    /// returns `true`.
    pub fn fact(
        mut self,
        name: impl Into<String>,
        fact: impl Fn(&Run, u64) -> bool + 'static,
    ) -> Self {
        self.facts.push((name.into(), Box::new(fact)));
        self
    }

    /// Folds bisimulation minimisation into construction: `build` will
    /// additionally compute the coarsest epistemic bisimulation quotient
    /// of the point model — by partition refinement directly over the
    /// dense per-agent view ids, before any formula is evaluated — and
    /// attach it as [`InterpretedSystem::quotient`]. Quotient worlds are
    /// labelled with their representative point's `run@t` name.
    ///
    /// The quotient answers every formula of the `D`-free static fragment
    /// identically to the full model (and is often much smaller); the
    /// temporal operators and `D_G` must still be evaluated on the full
    /// model, which remains available unchanged.
    pub fn minimized(mut self, on: bool) -> Self {
        self.minimize = on;
        self
    }

    /// Attaches a resource [`Budget`]: construction charges one visited
    /// state per point-sized unit of work (amortized), enforces the
    /// world ceiling against the point count up front, and re-checks
    /// deadlines/cancellation at minimisation rounds. Use
    /// [`try_build`](Self::try_build) to observe the resulting errors.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Materialises the interpreted system.
    ///
    /// # Panics
    ///
    /// Panics if a [`budget`](Self::budget) was attached and exceeded —
    /// governed callers should use [`try_build`](Self::try_build).
    pub fn build(self) -> InterpretedSystem {
        self.try_build()
            .unwrap_or_else(|e| panic!("interpreted-system build exceeded its budget: {e}"))
    }

    /// Materialises the interpreted system under the attached budget.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] when the point count exceeds the world ceiling
    /// (checked before any allocation), the visited-state budget runs
    /// out, the deadline passes, or the budget's token is cancelled. The
    /// failpoint site `runs::build` can inject the same errors. On error
    /// all partially-built state is dropped.
    pub fn try_build(self) -> Result<InterpretedSystem, LimitExceeded> {
        failpoints::check("runs::build", Phase::Build)?;
        let budget = self.budget;
        let system = self.system;
        let num_points = system.num_points();
        let num_procs = system.num_procs();
        budget.check_worlds(Phase::Build, num_points as u64)?;

        // World layout: runs in order, times ascending.
        let mut offsets = Vec::with_capacity(system.num_runs());
        let mut acc = 0u32;
        for (_, r) in system.runs() {
            offsets.push(acc);
            acc += r.num_points() as u32;
        }

        let mut b = ModelBuilder::new(num_procs);
        // Worlds are unnamed: point names `run@t` are derived lazily from
        // `locate` when a diagnostic asks (see `point_name`), instead of
        // one `format!` per point here.
        b.add_worlds(num_points);
        // Per-fact truth bit-vectors: fed to the model builder, and — when
        // minimising — to the initial refinement partition.
        let mut fact_bits: Vec<Vec<bool>> = Vec::with_capacity(self.facts.len());
        for (name, fact) in &self.facts {
            let atom = b.atom(name.clone());
            let mut bits = Vec::with_capacity(num_points);
            let mut w = 0usize;
            for (_, r) in system.runs() {
                for t in 0..=r.horizon {
                    budget.tick(Phase::Build)?;
                    let v = fact(r, t);
                    if v {
                        b.set_atom(atom, WorldId::new(w), true);
                    }
                    bits.push(v);
                    w += 1;
                }
            }
            fact_bits.push(bits);
        }
        // Agent partitions: view ids memoised on a record-prefix trie, so
        // `encode_view` runs once per distinct processor history, not once
        // per point (see `agent_view_ids`); then a dense O(n) partition
        // build from the ids.
        let mut ids: Vec<u32> = Vec::with_capacity(num_points);
        let mut partitions: Vec<Partition> = Vec::with_capacity(num_procs);
        for i in 0..num_procs {
            let num_views =
                agent_view_ids(&system, &*self.view, AgentId::new(i), &budget, &mut ids)?;
            partitions.push(Partition::from_dense_keys(num_points, &ids, num_views));
        }
        let quotient = if self.minimize {
            Some(quotient_of(
                &system,
                &offsets,
                &partitions,
                &self.facts,
                &fact_bits,
                &budget,
            )?)
        } else {
            None
        };
        for (i, p) in partitions.into_iter().enumerate() {
            b.set_partition(AgentId::new(i), p);
        }
        let model = b.build();

        // Clock table for the timestamped operators.
        let mut clocks: Vec<Vec<Option<u64>>> = vec![Vec::with_capacity(num_points); num_procs];
        for (_, r) in system.runs() {
            for t in 0..=r.horizon {
                for (i, col) in clocks.iter_mut().enumerate() {
                    col.push(r.proc(AgentId::new(i)).clock_at(t));
                }
            }
        }

        Ok(InterpretedSystem {
            system,
            model,
            offsets,
            clocks,
            view_name: self.view.name(),
            quotient,
        })
    }
}

/// Marks the head of a time-0 prefix key. Later keys start with a
/// prefix-node id (`< 2^32`), so the two kinds never collide.
const PREFIX_ROOT: u64 = 1 << 32;

/// Fills `ids` with `agent`'s dense view id at every point, in world
/// order, and returns the number of distinct views.
///
/// Each point's *record prefix* — wake time, initial state, the clock
/// readings up to `t` and the events before `t`, with their times — is
/// hash-consed incrementally into a trie, one small key per tick:
/// `[parent node, (new events << 1) | has reading, reading?, (event,
/// time)*]`, where time 0 replaces the parent node by `[PREFIX_ROOT |
/// wakes, wake time, initial state]`. A prefix node fixes `t` (its
/// depth) and everything a [`ViewFunction`] may read, so equal nodes
/// have equal views and `encode_view` runs once per distinct node, not
/// once per point. The first point with a given view is always a memo
/// miss, visited in world order, so the ids are exactly those of
/// interning `encode_view` at every point.
///
/// Charges one [`Phase::Build`] tick per point.
fn agent_view_ids(
    system: &System,
    view: &dyn ViewFunction,
    agent: AgentId,
    budget: &Budget,
    ids: &mut Vec<u32>,
) -> Result<usize, LimitExceeded> {
    let mut views = ViewInterner::new();
    let mut prefixes = ViewInterner::new();
    // `memo[node]` = view id of prefix node `node` (nodes are dense).
    let mut memo: Vec<u32> = Vec::new();
    let mut key: Vec<u64> = Vec::new();
    let mut scratch: Vec<u64> = Vec::new();
    ids.clear();
    for (_, r) in system.runs() {
        let p = r.proc(agent);
        let mut node = None;
        let mut next = 0; // first event not yet in the prefix
        for t in 0..=r.horizon {
            budget.tick(Phase::Build)?;
            key.clear();
            match node {
                Some(parent) => key.push(u64::from(parent)),
                None => key.extend([
                    PREFIX_ROOT | u64::from(p.wake_time.is_some()),
                    p.wake_time.unwrap_or(0),
                    p.initial_state,
                ]),
            }
            let fresh = p.events[next..].partition_point(|e| e.time < t);
            let reading = p.clock.as_ref().and_then(|c| c.get(t as usize));
            key.push((fresh as u64) << 1 | u64::from(reading.is_some()));
            key.extend(reading);
            for e in &p.events[next..next + fresh] {
                e.event.encode(&mut key);
                key.push(e.time);
            }
            next += fresh;
            let n = prefixes.intern(&key);
            if n as usize == memo.len() {
                scratch.clear();
                view.encode_view(r, agent, t, &mut scratch);
                memo.push(views.intern(&scratch));
            }
            ids.push(memo[n as usize]);
            node = Some(n);
        }
    }
    Ok(views.len())
}

/// The on-the-fly bisimulation fold: computes the coarsest-bisimulation
/// quotient model of the point universe from the per-agent view-id
/// partitions and fact bit-vectors — i.e. *before* the full model is
/// materialised — taking quotient world names from representative points
/// (`run@t`, the `point_name` scheme; the interpreted worlds themselves
/// are unnamed).
fn quotient_of(
    system: &System,
    offsets: &[u32],
    partitions: &[Partition],
    facts: &[(String, FactFn)],
    fact_bits: &[Vec<bool>],
    budget: &Budget,
) -> Result<Minimized, LimitExceeded> {
    let n = system.num_points();
    // Initial partition: by fact valuation, one dense pair-refinement per
    // fact (meet with the fact's indicator partition).
    let mut init = Partition::trivial(n);
    let mut keys: Vec<u32> = Vec::with_capacity(n);
    for bits in fact_bits {
        keys.clear();
        keys.extend(bits.iter().map(|&v| v as u32));
        init = init.meet(&Partition::from_dense_keys(n, &keys, 2));
    }
    let relations: Vec<&Partition> = partitions.iter().collect();
    let classes = coarsest_refinement_budgeted(init, &relations, budget)?;
    let k = classes.num_blocks();
    // Representative (first point) per class and the point→class map.
    let mut class_of = vec![0u32; n];
    let mut rep: Vec<u32> = Vec::with_capacity(k);
    for b in 0..k {
        let mut members = classes.block_members(b);
        rep.push(members.next().expect("blocks are non-empty").index() as u32);
        for w in classes.block_members(b) {
            class_of[w.index()] = b as u32;
        }
    }
    let locate = |w: u32| -> (usize, u64) {
        let run = match offsets.binary_search(&w) {
            Ok(r) => r,
            Err(ins) => ins - 1,
        };
        (run, (w - offsets[run]) as u64)
    };
    let mut qb = ModelBuilder::new(system.num_procs());
    for &r in &rep {
        let (run, t) = locate(r);
        qb.add_world(format!("{}@{t}", system.run(RunId::from(run)).name));
    }
    for ((name, _), bits) in facts.iter().zip(fact_bits) {
        let atom = qb.atom(name.clone());
        for (b, &r) in rep.iter().enumerate() {
            if bits[r as usize] {
                qb.set_atom(atom, WorldId::new(b), true);
            }
        }
    }
    for (i, part) in quotient_partitions(&classes, &relations)
        .into_iter()
        .enumerate()
    {
        qb.set_partition(AgentId::new(i), part);
    }
    Ok(Minimized {
        model: qb.build(),
        class_of,
    })
}

/// A view-based knowledge interpretation over a finite system of runs.
///
/// # Examples
///
/// ```
/// use hm_runs::{System, RunBuilder, InterpretedSystem, CompleteHistory};
/// use hm_logic::{parse, evaluate};
/// use hm_kripke::AgentId;
///
/// let sent = RunBuilder::new("sent", 2, 1)
///     .wake(AgentId::new(0), 0, 1)
///     .wake(AgentId::new(1), 0, 0)
///     .build();
/// let quiet = RunBuilder::new("quiet", 2, 1)
///     .wake(AgentId::new(0), 0, 0)
///     .wake(AgentId::new(1), 0, 0)
///     .build();
/// let isys = InterpretedSystem::builder(System::new(vec![sent, quiet]), CompleteHistory)
///     .fact("one", |run, _t| run.proc(AgentId::new(0)).initial_state == 1)
///     .build();
/// let f = parse("K0 one")?;
/// // Agent 0 read its own initial state, so it knows `one` in run 0.
/// assert!(evaluate(&isys, &f)?.contains(isys.world(0.into(), 0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct InterpretedSystem {
    system: System,
    model: KripkeModel,
    offsets: Vec<u32>,
    /// `clocks[agent][world]`.
    clocks: Vec<Vec<Option<u64>>>,
    view_name: &'static str,
    /// The bisimulation quotient, when construction folded it in (see
    /// [`InterpretedSystemBuilder::minimized`]).
    quotient: Option<Minimized>,
}

impl InterpretedSystem {
    /// Starts building an interpretation of `system` under `view`.
    pub fn builder(system: System, view: impl ViewFunction + 'static) -> InterpretedSystemBuilder {
        InterpretedSystemBuilder {
            system,
            view: Box::new(view),
            facts: Vec::new(),
            minimize: false,
            budget: Budget::unlimited(),
        }
    }

    /// `true` when the underlying run set was truncated by a resource
    /// budget: classical verdicts on this frame are unsound in general —
    /// use three-valued evaluation
    /// ([`evaluate_interval`](hm_logic::evaluate_interval)) instead.
    pub fn is_partial(&self) -> bool {
        self.system.is_truncated()
    }

    /// The bisimulation quotient computed at build time, if
    /// [`minimized`](InterpretedSystemBuilder::minimized) was requested:
    /// a (usually much smaller) model answering every `D`-free static
    /// formula identically at `quotient.image(w)`, plus the point→class
    /// map. Temporal operators and `D_G` are not quotient-invariant —
    /// evaluate those on `self` directly.
    pub fn quotient(&self) -> Option<&Minimized> {
        self.quotient.as_ref()
    }

    /// The underlying system of runs.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The materialised Kripke model (worlds = points).
    pub fn model(&self) -> &KripkeModel {
        &self.model
    }

    /// Name of the view function used.
    pub fn view_name(&self) -> &'static str {
        self.view_name
    }

    /// The world id of point `(run, t)`.
    ///
    /// # Panics
    ///
    /// Panics if the point is outside the system.
    pub fn world(&self, run: RunId, t: u64) -> WorldId {
        assert!(
            t <= self.system.run(run).horizon,
            "time {t} beyond horizon of {run}"
        );
        WorldId::new(self.offsets[run.index()] as usize + t as usize)
    }

    /// Diagnostic name of a world: `run@t`, derived lazily from
    /// [`locate`](Self::locate). The underlying model's worlds are
    /// unnamed (construction never formats a name per point); use this
    /// instead of [`KripkeModel::world_label`] for interpreted systems.
    pub fn point_name(&self, w: WorldId) -> String {
        let p = self.locate(w);
        format!("{}@{}", self.system.run(p.run).name, p.time)
    }

    /// The point of a world id.
    pub fn locate(&self, w: WorldId) -> Point {
        let idx = w.index() as u32;
        // offsets is ascending; find the last offset ≤ idx.
        let run = match self.offsets.binary_search(&idx) {
            Ok(r) => r,
            Err(ins) => ins - 1,
        };
        Point::new(RunId::from(run), (idx - self.offsets[run]) as u64)
    }

    /// Evaluates a closed formula over this interpretation.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the model checker.
    pub fn eval(&self, f: &Formula) -> Result<WorldSet, EvalError> {
        evaluate(self, f)
    }

    /// `true` iff `f` holds at point `(run, t)`.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the model checker.
    pub fn holds(&self, f: &Formula, run: RunId, t: u64) -> Result<bool, EvalError> {
        Ok(self.eval(f)?.contains(self.world(run, t)))
    }

    /// `true` iff `f` holds at every point (validity in the system).
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the model checker.
    pub fn valid(&self, f: &Formula) -> Result<bool, EvalError> {
        Ok(self.eval(f)?.is_full())
    }

    /// The set of points of one run.
    pub fn run_points(&self, run: RunId) -> WorldSet {
        let mut out = self.model.empty_set();
        for t in 0..=self.system.run(run).horizon {
            out.insert(self.world(run, t));
        }
        out
    }
}

impl std::fmt::Debug for InterpretedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterpretedSystem")
            .field("runs", &self.system.num_runs())
            .field("points", &self.model.num_worlds())
            .field("view", &self.view_name)
            .finish()
    }
}

impl Frame for InterpretedSystem {
    fn num_worlds(&self) -> usize {
        self.model.num_worlds()
    }

    fn num_agents(&self) -> usize {
        self.model.num_agents()
    }

    fn atom_set(&self, name: &str) -> Option<WorldSet> {
        self.model.atom_id(name).map(|a| self.model.atom_set(a))
    }

    fn knowledge_set(&self, i: AgentId, a: &WorldSet) -> WorldSet {
        self.model.knowledge(i, a)
    }

    fn distributed_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        self.model.distributed_knowledge(g, a)
    }

    fn common_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        self.model.common_knowledge(g, a)
    }

    fn temporal(&self) -> Option<&dyn TemporalStructure> {
        Some(self)
    }

    fn atom_table(&self) -> Option<&dyn AtomTable> {
        Some(self)
    }
}

impl AtomTable for InterpretedSystem {
    fn atom_index(&self, name: &str) -> Option<usize> {
        self.model.atom_id(name).map(|a| a.index())
    }

    fn atom_set_by_id(&self, id: usize) -> WorldSet {
        self.model.atom_set(id.into())
    }
}

impl TemporalStructure for InterpretedSystem {
    fn num_runs(&self) -> usize {
        self.system.num_runs()
    }

    fn run_of(&self, w: WorldId) -> usize {
        self.locate(w).run.index()
    }

    fn time_of(&self, w: WorldId) -> u64 {
        self.locate(w).time
    }

    fn point(&self, run: usize, t: u64) -> Option<WorldId> {
        let id = RunId::from(run);
        (t <= self.system.run(id).horizon).then(|| self.world(id, t))
    }

    fn run_len(&self, run: usize) -> u64 {
        self.system.run(RunId::from(run)).num_points()
    }

    fn clock(&self, i: AgentId, w: WorldId) -> Option<u64> {
        self.clocks[i.index()][w.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Message, TimedEvent};
    use crate::run::{ProcRecord, RunBuilder};
    use crate::view::{last_event_view, ClockOnly, CompleteHistory, SharedLambda};
    use hm_kripke::SplitMix64;
    use hm_limits::Limits;
    use hm_logic::parse;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// Two runs: in "sent", p0 sends to p1 at t=1, delivered at t=2.
    /// In "lost", the message is sent but never delivered.
    fn msg_system() -> System {
        let msg = Message::tagged(1);
        let sent = RunBuilder::new("sent", 2, 3)
            .wake(a(0), 0, 0)
            .wake(a(1), 0, 0)
            .event(a(0), 1, Event::Send { to: a(1), msg })
            .event(a(1), 2, Event::Recv { from: a(0), msg })
            .build();
        let lost = RunBuilder::new("lost", 2, 3)
            .wake(a(0), 0, 0)
            .wake(a(1), 0, 0)
            .event(a(0), 1, Event::Send { to: a(1), msg })
            .build();
        System::new(vec![sent, lost])
    }

    fn interp(sys: System) -> InterpretedSystem {
        InterpretedSystem::builder(sys, CompleteHistory)
            .fact("sent", |run, t| {
                run.proc(a(0))
                    .events_before(t + 1)
                    .any(|e| matches!(e.event, Event::Send { .. }))
            })
            .fact("delivered", |run, t| {
                run.proc(a(1))
                    .events_before(t + 1)
                    .any(|e| e.event.is_recv())
            })
            .build()
    }

    #[test]
    fn world_point_round_trip() {
        let isys = interp(msg_system());
        assert_eq!(isys.model().num_worlds(), 8);
        for p in isys.system().points().collect::<Vec<_>>() {
            let w = isys.world(p.run, p.time);
            assert_eq!(isys.locate(w), p);
        }
    }

    #[test]
    fn receiver_knows_sender_does_not_know_it_knows() {
        let isys = interp(msg_system());
        let sent_run = RunId(0);
        // The receive at t=2 enters p1's history at t=3 (histories exclude
        // events at the current tick, Section 5), so p1 knows `sent` at 3.
        assert!(!isys.holds(&parse("K1 sent").unwrap(), sent_run, 2).unwrap());
        assert!(isys.holds(&parse("K1 sent").unwrap(), sent_run, 3).unwrap());
        // p0 cannot tell delivery from loss: ¬K0 K1 sent at any time.
        let k0k1 = parse("K0 K1 sent").unwrap();
        for t in 0..=3 {
            assert!(!isys.holds(&k0k1, sent_run, t).unwrap(), "t={t}");
        }
        // And common knowledge of `sent` fails everywhere.
        let c = parse("C{0,1} sent").unwrap();
        assert!(isys.eval(&c).unwrap().is_empty());
    }

    #[test]
    fn temporal_operators_work_on_interpreted_systems() {
        let isys = interp(msg_system());
        // In the delivered run, at t=0: even(delivered) holds; in the lost
        // run it does not.
        let f = parse("even delivered").unwrap();
        assert!(isys.holds(&f, RunId(0), 0).unwrap());
        assert!(!isys.holds(&f, RunId(1), 0).unwrap());
        // E^◇: p1 eventually knows `sent` only in the delivered run; p0
        // knows it from the start in both.
        let eev = parse("Eev{0,1} sent").unwrap();
        assert!(isys.holds(&eev, RunId(0), 0).unwrap());
        assert!(!isys.holds(&eev, RunId(1), 0).unwrap());
    }

    #[test]
    fn shared_lambda_collapses_hierarchy() {
        let isys = InterpretedSystem::builder(msg_system(), SharedLambda)
            .fact("sent", |_, _| true) // valid fact
            .build();
        // Everything valid is common knowledge under Λ.
        assert!(isys.valid(&parse("C{0,1} sent").unwrap()).unwrap());
    }

    #[test]
    fn valid_and_holds() {
        let isys = interp(msg_system());
        assert!(isys.valid(&parse("sent -> sent").unwrap()).unwrap());
        assert!(!isys.valid(&parse("delivered").unwrap()).unwrap());
        assert_eq!(isys.run_points(RunId(1)).count(), 4);
        let dbg = format!("{isys:?}");
        assert!(dbg.contains("complete-history"));
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn world_out_of_range_panics() {
        let isys = interp(msg_system());
        isys.world(RunId(0), 9);
    }

    fn interp_minimized(sys: System) -> InterpretedSystem {
        InterpretedSystem::builder(sys, CompleteHistory)
            .fact("sent", |run, t| {
                run.proc(a(0))
                    .events_before(t + 1)
                    .any(|e| matches!(e.event, Event::Send { .. }))
            })
            .minimized(true)
            .build()
    }

    #[test]
    fn minimized_build_matches_post_hoc_minimisation() {
        let isys = interp_minimized(msg_system());
        let q = isys.quotient().expect("fold requested");
        // The fold must agree (up to world count and formula verdicts)
        // with minimising the materialised model after the fact.
        let post = hm_kripke::minimize(isys.model());
        assert_eq!(q.model.num_worlds(), post.model.num_worlds());
        assert!(q.model.num_worlds() < isys.model().num_worlds());
        // Verdict invariance on the D-free static fragment.
        for src in ["sent", "K0 sent", "K1 sent", "C{0,1} sent", "S{0,1} !sent"] {
            let f = parse(src).unwrap();
            let full = isys.eval(&f).unwrap();
            let quot = hm_logic::evaluate(&q.model, &f).unwrap();
            for w in 0..isys.model().num_worlds() {
                let w = WorldId::new(w);
                assert_eq!(full.contains(w), quot.contains(q.image(w)), "{src} at {w}");
            }
        }
    }

    #[test]
    fn quotient_worlds_carry_point_names() {
        let isys = interp_minimized(msg_system());
        let q = isys.quotient().unwrap();
        for w in 0..q.model.num_worlds() {
            let label = q.model.world_label(WorldId::new(w));
            assert!(label.contains('@'), "quotient label {label} is run@t");
        }
        // Unminimised builds carry no quotient.
        assert!(interp(msg_system()).quotient().is_none());
    }

    /// The per-point path the memo replaces: `encode_view` then `intern`
    /// at every point, in world order.
    fn reference_view_ids(system: &System, view: &dyn ViewFunction, agent: AgentId) -> Vec<u32> {
        let mut interner = ViewInterner::new();
        let mut ids = Vec::new();
        for (_, r) in system.runs() {
            for t in 0..=r.horizon {
                ids.push(interner.intern(&view.view_key(r, agent, t)));
            }
        }
        ids
    }

    /// Asserts that the memoised ids equal the reference ids, element
    /// for element, for every agent under every view of this crate.
    fn assert_memo_matches_reference(system: &System) {
        let last_event = last_event_view();
        let views: [&dyn ViewFunction; 4] =
            [&CompleteHistory, &SharedLambda, &ClockOnly, &last_event];
        let mut ids = Vec::new();
        for view in views {
            for i in 0..system.num_procs() {
                let reference = reference_view_ids(system, view, a(i));
                let num_views =
                    agent_view_ids(system, view, a(i), &Budget::unlimited(), &mut ids).unwrap();
                assert_eq!(ids, reference, "{} ids of agent {i}", view.name());
                let distinct = reference.iter().max().map_or(0, |&m| m as usize + 1);
                assert_eq!(
                    num_views,
                    distinct,
                    "{} view count of agent {i}",
                    view.name()
                );
            }
        }
    }

    #[test]
    fn memoised_view_ids_match_per_point_interning() {
        assert_memo_matches_reference(&msg_system());
        // Clocks that stall and jump, a late waker, a processor that
        // never wakes, and two events in one tick.
        let msg = Message::tagged(1);
        let clocked = |name: &str, readings: Vec<u64>, second: bool| {
            let mut b = RunBuilder::new(name, 3, 3)
                .wake(a(0), 0, 0)
                .wake(a(1), 1, 1)
                .clock_readings(a(0), readings)
                .perfect_clock(a(1), 2)
                .event(a(0), 1, Event::Send { to: a(1), msg })
                .event(a(1), 1, Event::Recv { from: a(0), msg });
            if second {
                b = b.event(a(0), 1, Event::Act { action: 3, data: 0 });
            }
            b.build()
        };
        assert_memo_matches_reference(&System::new(vec![
            clocked("stall", vec![4, 4, 4, 9], false),
            clocked("jump", vec![4, 5, 7, 9], true),
            clocked("stall2", vec![4, 4, 4, 9], true),
            clocked("jump2", vec![4, 5, 7, 9], false),
        ]));
    }

    /// A view that counts its `encode_view` calls.
    struct Counting<'a>(&'a Cell<usize>);

    impl ViewFunction for Counting<'_> {
        fn encode_view(&self, run: &Run, i: AgentId, t: u64, out: &mut Vec<u64>) {
            self.0.set(self.0.get() + 1);
            CompleteHistory.encode_view(run, i, t, out);
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn shared_histories_are_encoded_once() {
        // The two runs agree on p0's record up to the send at t=1, and
        // p0's record is identical in both: its 4 points per run are
        // encoded once in all.
        let calls = Cell::new(0);
        let mut ids = Vec::new();
        let system = msg_system();
        agent_view_ids(
            &system,
            &Counting(&calls),
            a(0),
            &Budget::unlimited(),
            &mut ids,
        )
        .unwrap();
        assert_eq!(calls.get(), 4);
        assert_eq!(ids, [0, 0, 1, 1, 0, 0, 1, 1]);
        // p1 diverges at the receive, which enters its history at t=3.
        calls.set(0);
        agent_view_ids(
            &system,
            &Counting(&calls),
            a(1),
            &Budget::unlimited(),
            &mut ids,
        )
        .unwrap();
        assert_eq!(calls.get(), 5);
        assert_eq!(ids, [0, 0, 0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn view_ids_charge_one_tick_per_point() {
        let system = msg_system();
        let points = system.num_points() as u64;
        let run = |max| {
            let budget = Limits::none().max_states_visited(max).budget();
            agent_view_ids(&system, &CompleteHistory, a(0), &budget, &mut Vec::new())
                .and_then(|_| budget.check_now(Phase::Build))
        };
        assert!(run(points).is_ok());
        assert_eq!(run(points - 1).unwrap_err().spent, points);
    }

    /// A random system whose records share prefixes often: small event
    /// and state alphabets, and runs that copy an earlier run's records
    /// up to a random tick before diverging. Records are built by hand,
    /// so events may precede the wake time and processors that never
    /// wake may still carry events.
    fn random_system(seed: u64) -> System {
        let mut s = SplitMix64::new(seed);
        let n = 1 + s.next_below(3) as usize;
        let mut runs: Vec<Run> = Vec::new();
        for k in 0..1 + s.next_below(8) {
            let horizon = s.next_below(7);
            let random_event = |s: &mut SplitMix64| match s.next_below(3) {
                0 => Event::Send {
                    to: a(s.next_below(n as u64) as usize),
                    msg: Message::tagged(1),
                },
                1 => Event::Recv {
                    from: a(s.next_below(n as u64) as usize),
                    msg: Message::new(1, s.next_below(2)),
                },
                _ => Event::Act {
                    action: 0,
                    data: s.next_below(2),
                },
            };
            let fresh_events = |s: &mut SplitMix64, from: u64| -> Vec<TimedEvent> {
                (0..s.next_below(5))
                    .filter_map(|_| {
                        let t = from + s.next_below(horizon + 1);
                        (t <= horizon).then(|| TimedEvent::new(t, random_event(s)))
                    })
                    .collect()
            };
            let parent = (!runs.is_empty() && s.next_below(2) == 0)
                .then(|| runs[s.next_below(runs.len() as u64) as usize].clone());
            let procs = (0..n)
                .map(|i| {
                    let mut p = match &parent {
                        // Keep the parent's record up to a random tick.
                        Some(r) => {
                            let split = s.next_below(horizon + 1);
                            let q = &r.procs[i];
                            let mut events: Vec<TimedEvent> = q
                                .events
                                .iter()
                                .filter(|e| e.time < split)
                                .copied()
                                .collect();
                            events.extend(fresh_events(&mut s, split));
                            let clock = q.clock.as_ref().map(|c| {
                                let mut c = c.clone();
                                c.resize(horizon as usize + 1, c.last().copied().unwrap_or(0));
                                c
                            });
                            ProcRecord {
                                wake_time: q.wake_time.filter(|&w| w <= horizon),
                                initial_state: q.initial_state,
                                clock,
                                events,
                            }
                        }
                        None => ProcRecord {
                            wake_time: (s.next_below(4) != 0).then(|| s.next_below(horizon + 1)),
                            initial_state: s.next_below(2),
                            clock: match s.next_below(3) {
                                0 => None,
                                1 => Some(vec![s.next_below(3); horizon as usize + 1]),
                                _ => Some(
                                    (0..=horizon)
                                        .scan(0, |c, _| {
                                            *c += s.next_below(3);
                                            Some(*c)
                                        })
                                        .collect(),
                                ),
                            },
                            events: fresh_events(&mut s, 0),
                        },
                    };
                    p.events.sort_by_key(|e| e.time);
                    p
                })
                .collect();
            runs.push(Run {
                name: format!("r{k}"),
                procs,
                horizon,
            });
        }
        System::new(runs)
    }

    proptest! {
        #[test]
        fn memoised_view_ids_match_on_random_runs(seed in 0u64..u64::MAX) {
            assert_memo_matches_reference(&random_system(seed));
        }
    }
}
