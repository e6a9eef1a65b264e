//! `query-warm`: one closed-loop caller asks generated formulas of
//! sessions built during set-up, over five frames of different shape.
//!
//! Half of the asks repeat a fixed per-frame pool, asked once during
//! set-up, so they hit the compiled cache and only evaluate. The other
//! half are fresh: each frame walks a seeded stream of distinct
//! formulas, every one new to its session, so it goes through analyze,
//! simplify, compile, bind and eval. When a frame's stream runs out the
//! session is rebuilt and the pool re-asked — outside the timed window,
//! which pauses — so a fresh formula is always new to the session it is
//! asked of, and the session caches stay bounded.
//!
//! Evaluation dominates this workload; interpretation shows only in
//! `setup_s`. The traced run replays every fourth fresh formula through
//! the logic layer's public calls, just before its ask, to split the
//! fresh ask by phase.

use crate::formulas::{FormulaGen, Vocab};
use crate::stats::{self, fingerprint};
use crate::trace::Trace;
use crate::{Config, Outcome};
use hm_engine::{Engine, Query, Session};
use hm_kripke::{minimize, SplitMix64, WorldId, WorldSet};
use hm_logic::{compile, evaluate_tree, simplify, Analyzer};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A frame of the workload and the names of its per-frame layers.
struct FrameDef {
    spec: &'static str,
    minimize: bool,
    vocab: Vocab,
    eval_span: &'static str,
    eval_layer: &'static str,
    build_layer: &'static str,
}

const MUDDY_ATOMS: &[&str] = &[
    "m", "muddy0", "muddy1", "muddy2", "muddy3", "muddy4", "muddy5", "muddy6", "muddy7", "muddy8",
    "muddy9", "muddy10", "muddy11",
];

const FRAMES: [FrameDef; 5] = [
    FrameDef {
        spec: "muddy:n=12",
        minimize: false,
        vocab: Vocab {
            atoms: MUDDY_ATOMS,
            agents: 12,
            temporal: false,
        },
        eval_span: "logic.eval.muddy",
        eval_layer: "logic.eval_us.muddy",
        build_layer: "engine.build_ms.muddy",
    },
    FrameDef {
        spec: "random:seed=7,worlds=4096,agents=8,atoms=8,blocks=64",
        minimize: false,
        vocab: Vocab {
            atoms: &["q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7"],
            agents: 8,
            temporal: false,
        },
        eval_span: "logic.eval.random",
        eval_layer: "logic.eval_us.random",
        build_layer: "engine.build_ms.random",
    },
    FrameDef {
        spec: "deadlock:n=4,horizon=20",
        minimize: false,
        vocab: Vocab {
            atoms: &["deadlock", "detected"],
            agents: 4,
            temporal: true,
        },
        eval_span: "logic.eval.deadlock",
        eval_layer: "logic.eval_us.deadlock",
        build_layer: "engine.build_ms.deadlock",
    },
    FrameDef {
        spec: "r2d2:eps=6,pre=8,post=8",
        minimize: true,
        vocab: Vocab {
            atoms: &["sent", "sent_focus"],
            agents: 2,
            temporal: true,
        },
        eval_span: "logic.eval.r2d2",
        eval_layer: "logic.eval_us.r2d2",
        build_layer: "engine.build_ms.r2d2",
    },
    FrameDef {
        spec: "agreement:n=4,f=2,mode=reduced",
        minimize: false,
        vocab: Vocab {
            atoms: &["min0", "decided0"],
            agents: 4,
            temporal: true,
        },
        eval_span: "logic.eval.agreement",
        eval_layer: "logic.eval_us.agreement",
        build_layer: "engine.build_ms.agreement",
    },
];

/// The frame whose quotient the refinement probe times.
const R2D2: usize = 3;

/// Repeated formulas per frame (asked in set-up, then compiled-cache hits).
const POOL: usize = 64;

/// Fresh formulas per frame before its session is recycled.
const FRESH: usize = 1024;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A distinct answer — frame, fresh or pool, formula index, and the
/// verdict's fingerprint or error — kept with its number of asks for
/// the check after the window. Tallies stay bounded however many asks a
/// run makes, so they do not grow the peak RSS with throughput.
type AnswerKey = (usize, bool, usize, Result<u64, String>);

fn build(def: &FrameDef) -> Result<Session, String> {
    Engine::for_scenario(def.spec)
        .minimize(def.minimize)
        .build()
        .map_err(|e| format!("{}: {e}", def.spec))
}

/// Asks every pool formula once, so later asks of them are cache hits.
fn warm(session: &Session, pool: &[Query]) -> Result<(), String> {
    for q in pool {
        session.ask(q).map_err(|e| format!("pool `{q}`: {e}"))?;
    }
    Ok(())
}

/// Replays a fresh ask through the logic layer's public calls, each in
/// a span, the way `Session::ask` runs it: analyze, simplify, compile,
/// bind (also against the quotient when the session answers there),
/// evaluate (on the quotient, mapped back, when it does). Returns the
/// satisfying set and the program size.
fn replay(
    tr: &mut Trace,
    parent: usize,
    id: u64,
    def: &FrameDef,
    session: &Session,
    query: &Query,
) -> Result<(WorldSet, usize), String> {
    let frame = session.frame();
    let f = query.formula();
    let report = tr.span("logic.analyze", Some(parent), id, || {
        Analyzer::new()
            .frame(frame)
            .minimize(def.minimize)
            .analyze(f)
    });
    if let Some(e) = report.first_error_as_eval() {
        return Err(e.to_string());
    }
    let simplified = tr.span("logic.simplify", Some(parent), id, || simplify(f));
    let compiled = tr
        .span("logic.compile", Some(parent), id, || compile(&simplified))
        .map_err(|e| e.to_string())?;
    let quotient = session.quotient().filter(|_| compiled.quotient_safe());
    let (full, on_quotient) = tr
        .span("logic.bind", Some(parent), id, || {
            let full = compiled.bind(frame)?;
            let q = quotient.map(|q| compiled.bind(&q.model)).transpose()?;
            Ok::<_, hm_logic::EvalError>((full, q))
        })
        .map_err(|e| e.to_string())?;
    let set = tr.span(def.eval_span, Some(parent), id, || {
        match (quotient, on_quotient) {
            (Some(q), Some(qbound)) => {
                let small = compiled.eval_bound(&q.model, &qbound);
                let n = frame.num_worlds();
                let mut out = WorldSet::empty(n);
                for w in 0..n {
                    if small.contains(q.image(WorldId::new(w))) {
                        out.insert(WorldId::new(w));
                    }
                }
                out
            }
            _ => compiled.eval_bound(frame, &full),
        }
    });
    Ok((set, compiled.num_ops()))
}

pub fn run(cfg: Config) -> Outcome {
    let mut out = Outcome::default();
    // Inputs: per frame, a pool and a fresh stream, all distinct.
    let mut pools: Vec<Vec<Query>> = Vec::new();
    let mut streams: Vec<Vec<Query>> = Vec::new();
    for (i, def) in FRAMES.iter().enumerate() {
        let mut gen = FormulaGen::new(
            0x5EA_0000 + i as u64,
            cfg.seed.wrapping_mul(0x9E37_79B9) ^ i as u64,
            def.vocab,
        );
        pools.push((0..POOL).map(|_| gen.fresh().1).collect());
        streams.push((0..FRESH).map(|_| gen.fresh().1).collect());
    }

    let mut build_ms: Vec<Vec<f64>> = vec![Vec::new(); FRAMES.len()];
    let mut setups = Vec::new();
    let mut sessions: Vec<Session> = Vec::new();
    for _ in 0..SETUPS {
        sessions.clear();
        let t = Instant::now();
        for (i, def) in FRAMES.iter().enumerate() {
            let b = Instant::now();
            let session = build(def);
            build_ms[i].push(b.elapsed().as_secs_f64() * 1e3);
            match session.and_then(|s| warm(&s, &pools[i]).map(|()| s)) {
                Ok(s) => sessions.push(s),
                Err(e) => {
                    out.problems.push(format!("set-up failed: {e}"));
                    out.attempted = 1;
                    out.failed = 1;
                    return out;
                }
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&mut setups);

    let mut tr = Trace::new();
    let mut rng = SplitMix64::new(cfg.seed ^ 0xA5A5_0001);
    let mut next = vec![0usize; FRAMES.len()];
    let mut answers: HashMap<AnswerKey, u64> = HashMap::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut untraced_fresh_us, mut replay_us, mut ops) = (Vec::new(), Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() - paused < window {
        let f = rng.next_below(FRAMES.len() as u64) as usize;
        let fresh = rng.next_below(2) == 1;
        let idx = if fresh {
            if next[f] == FRESH {
                // Recycle: a rebuilt session has an empty cache again.
                let p = Instant::now();
                match build(&FRAMES[f]).and_then(|s| warm(&s, &pools[f]).map(|()| s)) {
                    Ok(s) => sessions[f] = s,
                    Err(e) => out.problems.push(format!("recycle failed: {e}")),
                }
                next[f] = 0;
                paused += p.elapsed();
            }
            next[f] += 1;
            next[f] - 1
        } else {
            rng.next_below(POOL as u64) as usize
        };
        let query = if fresh {
            &streams[f][idx]
        } else {
            &pools[f][idx]
        };
        let session = &sessions[f];
        // Traced runs: odd ops untraced; of the even ops, fresh asks
        // with k % 4 == 2 are replayed first (with caches as cold as an
        // untraced ask finds them) and their ask is left out of the
        // per-class and overhead figures; the rest are plain spans.
        let traced = cfg.trace && k.is_multiple_of(2);
        let replayed = traced && fresh && k % 4 == 2;
        let replay_out = replayed.then(|| {
            let r0 = Instant::now();
            let p = tr.open("probe.replay", None, k);
            let r = replay(&mut tr, p, k, &FRAMES[f], session, query);
            tr.close(p);
            replay_us.push(r0.elapsed().as_secs_f64() * 1e6);
            r
        });
        let t0 = Instant::now();
        let verdict = if traced {
            let name = match (replayed, fresh) {
                (true, _) => "probe.ask_after_replay",
                (false, true) => "engine.ask_fresh",
                (false, false) => "engine.ask_hit",
            };
            tr.span(name, None, k, || session.ask(query))
        } else {
            session.ask(query)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.latencies_ms.push(ms as f32);
        let fp = verdict
            .map(|v| fingerprint(v.satisfying()))
            .map_err(|e| e.to_string());
        match replay_out {
            Some(Ok((set, n))) if fp.as_ref() == Ok(&fingerprint(&set)) => ops.push(n as f64),
            Some(Ok(_)) => out.problems.push(format!("replay of `{query}` disagrees")),
            Some(Err(e)) => out.problems.push(format!("replay of `{query}`: {e}")),
            // Hits at k % 4 == 2 keep their span but stay out of the
            // overhead figure, so traced and untraced ops share one mix.
            None if traced && k.is_multiple_of(4) => traced_ms.push(ms),
            None if traced || !cfg.trace => {}
            None => {
                untraced_ms.push(ms);
                if fresh {
                    untraced_fresh_us.push(ms * 1e3);
                }
            }
        }
        *answers.entry((f, fresh, idx, fp)).or_default() += 1;
        k += 1;
    }
    out.timed_s = (start.elapsed() - paused).as_secs_f64();
    out.peak_rss_mb = stats::peak_rss_mb();
    out.attempted = answers.values().sum();
    let compiled_queries: usize = sessions.iter().map(Session::compiled_queries).sum();

    // The oracle: the reference tree-walking evaluator on each frame,
    // once per distinct formula asked.
    let mut expected: HashMap<(usize, bool, usize), Option<u64>> = HashMap::new();
    for ((frame, fresh, idx, fp), n) in &answers {
        let want = *expected.entry((*frame, *fresh, *idx)).or_insert_with(|| {
            let query = if *fresh {
                &streams[*frame][*idx]
            } else {
                &pools[*frame][*idx]
            };
            evaluate_tree(sessions[*frame].frame(), query.formula())
                .ok()
                .map(|s| fingerprint(&s))
        });
        match (fp, want) {
            (Ok(got), Some(want)) if *got == want => {}
            (Err(e), _) => {
                out.failed += n;
                if out.problems.len() < 5 {
                    out.problems.push(format!("ask failed: {e}"));
                }
            }
            _ => out.failed += n,
        }
    }

    if cfg.trace {
        let mut times = tr.self_times();
        let us = |times: &mut _, name| Trace::median_self(times, name, 1e3);
        out.layers = vec![
            (
                "trace.overhead_pct",
                100.0 * (stats::median(&mut traced_ms) / stats::median(&mut untraced_ms) - 1.0),
            ),
            (
                "trace.coverage_pct",
                100.0 * stats::mean(&replay_us) / stats::mean(&untraced_fresh_us),
            ),
            ("logic.analyze_us", us(&mut times, "logic.analyze")),
            ("logic.simplify_us", us(&mut times, "logic.simplify")),
            ("logic.compile_us", us(&mut times, "logic.compile")),
            ("logic.bind_us", us(&mut times, "logic.bind")),
            ("engine.ask_hit_us", us(&mut times, "engine.ask_hit")),
            ("engine.ask_fresh_us", us(&mut times, "engine.ask_fresh")),
            ("logic.ops", stats::median(&mut ops)),
            ("engine.compiled_queries", compiled_queries as f64),
        ];
        for (i, def) in FRAMES.iter().enumerate() {
            out.layers
                .push((def.eval_layer, us(&mut times, def.eval_span)));
            out.layers
                .push((def.build_layer, stats::median(&mut build_ms[i])));
        }
        let mut refine_ms: Vec<f64> = (0..3)
            .filter_map(|_| {
                let model = sessions[R2D2].interpreted()?.model();
                let t = Instant::now();
                std::hint::black_box(minimize(model));
                Some(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        out.layers
            .push(("kripke.refine_ms", stats::median(&mut refine_ms)));
        tr.write("query-warm");
    }
    out
}
