//! `agreement-cold`: the one-shot `hm ask` path on the symmetry-reduced
//! agreement frame. One closed-loop caller; each op builds the session
//! from the spec, asks `C{0,1,2,3} min0` once, and drops the session.
//!
//! Interpretation is about three quarters of an op and evaluation about
//! one percent; the op runs the same `SymmetricHistory` and
//! complete-history code as `f=3`, but at ~100 ms per op a run holds
//! hundreds of samples instead of a handful.
//!
//! The traced run rebuilds the op from the layers' public calls —
//! `agreement_builder_reduced_budgeted`, `try_build`, the first
//! `Session::ask`, the drop — alternating with untraced ops to measure
//! the tracing overhead. Beside each traced op it replays
//! `canonical_patterns` and the per-point view encoding + interning, to
//! split canonicalisation out of the system build and view interning
//! out of interpretation.

use crate::stats::{self, fingerprint};
use crate::trace::Trace;
use crate::{Config, Outcome};
use hm_core::agreement::{
    agreement_builder_reduced_budgeted, canonical_patterns, ck_onset_in_clean_run, AgreementSpec,
    SymmetricHistory,
};
use hm_engine::{Budget, Engine, Query, ScenarioRegistry, Session, Verdict};
use hm_kripke::{AgentId, SplitMix64};
use hm_logic::evaluate_tree;
use hm_runs::{RunId, ViewFunction, ViewInterner};
use std::time::{Duration, Instant};

const SPEC: &str = "agreement:n=4,f=2,mode=reduced";
const AGREEMENT: AgreementSpec = AgreementSpec { n: 4, f: 2 };

/// Pinned at the commit that introduced this benchmark: the CK query
/// holds at 6,268 of the frame's 19,680 points, and in a failure-free
/// run with some input 0 it first holds at tick 4 (round f+1).
const PINNED_COUNT: usize = 6268;
const PINNED_WORLDS: usize = 19680;
const PINNED_ONSET: u64 = 4;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one op answered, kept for the check after the timed window.
struct Answer {
    count: usize,
    worlds: usize,
    fp: u64,
    onset: Option<u64>,
}

/// The seeded inputs: the group's spelling order and the input vector
/// of the failure-free run whose CK onset is checked.
fn inputs(seed: u64) -> (Query, u64) {
    let mut rng = SplitMix64::new(seed);
    let mut members = [0usize, 1, 2, 3];
    for i in 0..members.len() {
        let j = i + rng.next_below((members.len() - i) as u64) as usize;
        members.swap(i, j);
    }
    let list: Vec<String> = members.iter().map(usize::to_string).collect();
    let query = Query::parse(&format!("C{{{}}} min0", list.join(","))).expect("query parses");
    // Any vector with a 0 input (0..=14): `min0` holds in its clean run.
    (query, rng.next_below(15))
}

/// The failure-free run with the given inputs.
fn clean_run(session: &Session, inputs: u64) -> Option<RunId> {
    let system = session.system()?;
    let n = system.num_procs();
    system
        .runs()
        .find(|(_, r)| {
            r.name.ends_with("-clean")
                && (0..n).all(|i| r.proc(AgentId::new(i)).initial_state == (inputs >> i) & 1)
        })
        .map(|(id, _)| id)
}

fn answer_of(session: &Session, verdict: &Verdict, rid: RunId) -> Result<Answer, String> {
    let isys = session.interpreted().ok_or("agreement frame has no runs")?;
    let horizon = isys.system().run(rid).horizon;
    Ok(Answer {
        count: verdict.count(),
        worlds: session.num_worlds(),
        fp: fingerprint(verdict.satisfying()),
        onset: (0..=horizon).find(|&t| verdict.holds_at(isys.world(rid, t))),
    })
}

/// The untraced op. Returns its latency — build, ask, and drop, not
/// the bookkeeping between ask and drop — and its answer.
fn op(query: &Query, rid: RunId) -> (Duration, Result<Answer, String>) {
    let t0 = Instant::now();
    let session = match Engine::for_scenario(SPEC).build() {
        Ok(s) => s,
        Err(e) => return (t0.elapsed(), Err(e.to_string())),
    };
    let verdict = session.ask(query);
    let asked = t0.elapsed();
    let answer = match &verdict {
        Ok(v) => answer_of(&session, v, rid),
        Err(e) => Err(e.to_string()),
    };
    let t2 = Instant::now();
    drop(verdict);
    drop(session);
    (asked + t2.elapsed(), answer)
}

/// The traced op: the same work through each layer's public call, each
/// in a span, plus the canonicalisation and view-interning replays.
/// Returns the latency of the op proper (replays excluded), its answer,
/// and the replays' counts `(patterns, view ids)`.
fn op_traced(
    tr: &mut Trace,
    id: u64,
    query: &Query,
    rid: RunId,
) -> (Duration, Result<Answer, String>, usize, usize) {
    let t0 = Instant::now();
    let a = tr.open("op", None, id);
    let built = (|| -> Result<(Session, Verdict), String> {
        tr.span("engine.resolve", Some(a), id, || {
            ScenarioRegistry::builtin().resolve(SPEC).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
        let builder = tr
            .span("core.system", Some(a), id, || {
                agreement_builder_reduced_budgeted(AGREEMENT, &Budget::unlimited())
            })
            .map_err(|e| e.to_string())?;
        let isys = tr
            .span("runs.interpret", Some(a), id, || builder.try_build())
            .map_err(|e| e.to_string())?;
        let session = tr
            .span("engine.session", Some(a), id, || {
                Engine::from_interpreted(isys).build()
            })
            .map_err(|e| e.to_string())?;
        let verdict = tr
            .span("engine.ask_first", Some(a), id, || session.ask(query))
            .map_err(|e| e.to_string())?;
        Ok((session, verdict))
    })();
    tr.close(a);
    let asked = t0.elapsed();
    let (session, verdict) = match built {
        Ok(sv) => sv,
        Err(e) => return (asked, Err(e), 0, 0),
    };
    let answer = answer_of(&session, &verdict, rid);
    let view_ids = match session.system() {
        Some(system) => tr.span("probe.views", None, id, || {
            let view = SymmetricHistory::new(AGREEMENT.n);
            let mut scratch = Vec::new();
            let mut ids = 0;
            for i in 0..system.num_procs() {
                let agent = AgentId::new(i);
                let mut interner = ViewInterner::new();
                for (_, r) in system.runs() {
                    for t in 0..=r.horizon {
                        scratch.clear();
                        view.encode_view(r, agent, t, &mut scratch);
                        std::hint::black_box(interner.intern(&scratch));
                    }
                }
                ids += interner.len();
            }
            ids
        }),
        None => 0,
    };
    let t2 = Instant::now();
    let b = tr.open("op", None, id);
    tr.span("engine.drop", Some(b), id, || {
        drop(verdict);
        drop(session);
    });
    tr.close(b);
    let latency = asked + t2.elapsed();
    let patterns = tr.span("probe.canonicalize", None, id, || {
        canonical_patterns(AGREEMENT).len()
    });
    (latency, answer, patterns, view_ids)
}

pub fn run(cfg: Config) -> Outcome {
    let (query, clean_inputs) = inputs(cfg.seed);
    let mut out = Outcome::default();

    // Set-up: full ops, untimed as ops; the first also finds the clean
    // run, whose id is the same in every build.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rid = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        match Engine::for_scenario(SPEC).build() {
            Ok(session) => {
                let _ = std::hint::black_box(session.ask(&query));
                rid = rid.or_else(|| clean_run(&session, clean_inputs));
            }
            Err(e) => out.problems.push(format!("set-up build failed: {e}")),
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&mut setups);
    let Some(rid) = rid else {
        out.problems
            .push("no failure-free run for the seeded inputs".into());
        out.attempted = 1;
        out.failed = 1;
        return out;
    };

    let mut tr = Trace::new();
    let mut answers: Vec<Result<Answer, String>> = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut patterns, mut view_ids) = (0, 0);
    let window = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < window {
        let (latency, answer) = if cfg.trace && k.is_multiple_of(2) {
            let (l, a, p, v) = op_traced(&mut tr, k, &query, rid);
            (patterns, view_ids) = (p, v);
            traced_ms.push(l.as_secs_f64() * 1e3);
            (l, a)
        } else {
            let (l, a) = op(&query, rid);
            untraced_ms.push(l.as_secs_f64() * 1e3);
            (l, a)
        };
        out.latencies_ms.push((latency.as_secs_f64() * 1e3) as f32);
        answers.push(answer);
        k += 1;
    }
    out.timed_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = stats::peak_rss_mb();
    out.attempted = answers.len() as u64;

    // The oracle: the pinned count and onset, and the reference
    // tree-walking evaluator on a build of the same frame.
    let oracle = Engine::for_scenario(SPEC)
        .build()
        .map_err(|e| e.to_string())
        .and_then(|s| {
            let tree = evaluate_tree(s.frame(), query.formula()).map_err(|e| e.to_string())?;
            let onset = ck_onset_in_clean_run(s.interpreted().ok_or("no runs")?, clean_inputs)
                .map_err(|e| e.to_string())?;
            Ok((tree, onset, s.num_worlds()))
        });
    match oracle {
        Ok((tree, onset, worlds)) => {
            if tree.count() != PINNED_COUNT || worlds != PINNED_WORLDS {
                out.problems.push(format!(
                    "tree-walk oracle holds at {} of {worlds} worlds, pinned {PINNED_COUNT} \
                     of {PINNED_WORLDS}",
                    tree.count()
                ));
            }
            if onset != Some(PINNED_ONSET) {
                out.problems.push(format!(
                    "clean-run CK onset {onset:?}, pinned {PINNED_ONSET}"
                ));
            }
            let fp = fingerprint(&tree);
            for a in &answers {
                let good = matches!(a, Ok(a) if a.fp == fp
                    && a.count == PINNED_COUNT
                    && a.worlds == PINNED_WORLDS
                    && a.onset == Some(PINNED_ONSET));
                if !good {
                    out.failed += 1;
                }
            }
        }
        Err(e) => {
            out.problems.push(format!("oracle build failed: {e}"));
            out.failed = out.attempted;
        }
    }
    if let Some(Err(e)) = answers.iter().find(|a| a.is_err()) {
        out.problems.push(format!("op failed: {e}"));
    }

    if cfg.trace {
        let mut times = tr.self_times();
        let untraced_mean = stats::mean(&untraced_ms);
        let untraced = stats::median(&mut untraced_ms);
        let ms = |times: &mut _, name| Trace::median_self(times, name, 1e6);
        out.layers = vec![
            (
                "trace.overhead_pct",
                100.0 * (stats::median(&mut traced_ms) / untraced - 1.0),
            ),
            (
                "trace.coverage_pct",
                100.0 * Trace::layer_sum_ns(&times) / 1e6 / untraced_mean,
            ),
            ("core.canonicalize_ms", ms(&mut times, "probe.canonicalize")),
            ("core.system_ms", ms(&mut times, "core.system")),
            ("runs.interpret_ms", ms(&mut times, "runs.interpret")),
            ("runs.views_ms", ms(&mut times, "probe.views")),
            ("runs.view_ids", view_ids as f64),
            ("engine.ask_first_ms", ms(&mut times, "engine.ask_first")),
            ("engine.drop_ms", ms(&mut times, "engine.drop")),
            ("core.patterns", patterns as f64),
            (
                "runs.worlds",
                answers
                    .iter()
                    .find_map(|a| a.as_ref().ok())
                    .map_or(0.0, |a| a.worlds as f64),
            ),
        ];
        tr.write("agreement-cold");
    }
    out
}
