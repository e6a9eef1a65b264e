//! View functions: what a processor can distinguish.
//!
//! Section 6 of Halpern–Moses defines knowledge relative to a *view
//! function* `v` assigning each processor a view at each point, required to
//! be a function of the processor's history. This module provides the
//! spectrum discussed in the paper:
//!
//! - [`CompleteHistory`] — the finest view (the *complete-history
//!   interpretation*), under which processors never forget;
//! - [`SharedLambda`] — the coarsest (a single view `Λ`), under which the
//!   knowledge hierarchy collapses;
//! - [`ClockOnly`] — the processor sees only its clock;
//! - [`StateProjection`] — an arbitrary function of the history
//!   (e.g. a bounded "local state", which may forget).
//!
//! Views are canonical integer encodings *appended into a caller-supplied
//! scratch buffer*: two points get the same view iff their encodings are
//! equal. On the hot path the interpreted-system builder does not encode
//! every point: it hash-conses each point's *record prefix* (the part of
//! the processor's record a view may read, see [`ViewFunction`]) into a
//! trie, one small key per tick, and calls
//! [`encode_view`](ViewFunction::encode_view) only for a prefix it has not
//! seen. Each such encoding goes through a
//! [`ViewInterner`](crate::ViewInterner) into a dense `u32` view id, and
//! agent partitions are built directly from those ids (see E16 for the
//! view-spectrum tests over this scheme).

use crate::run::{ProcRecord, Run};
use hm_kripke::AgentId;

/// A view function: assigns a canonical key to each (processor, point).
///
/// Implementations must be functions of the processor's *history* — they
/// may not peek at other processors' records (this is the paper's
/// requirement that `h(p,r,t) = h(p,r',t')` implies
/// `v(p,r,t) = v(p,r',t')`). [`CompleteHistory`] is the finest admissible
/// view; coarser views must factor through it (spot-checked
/// by the E16 view-spectrum tests).
///
/// # Contract
///
/// `encode_view(run, i, t, ..)` may read only `run.proc(i)`'s wake time,
/// its initial state, its clock readings at times `≤ t`, its events with
/// time `< t` (with their times), and `t` itself — nothing else of `run`
/// (not its name, horizon or other records). The interpreted-system
/// builder relies on this: it calls `encode_view` once per distinct
/// prefix of that data and reuses the resulting view id at every other
/// point with the same prefix, so a view reading anything more would get
/// ids computed at some other point.
pub trait ViewFunction {
    /// Appends the canonical key of processor `i`'s view at `(run, t)`
    /// onto `out` (which may hold unrelated prefix data the implementation
    /// must not touch). Equal appended encodings mean indistinguishable
    /// points.
    fn encode_view(&self, run: &Run, i: AgentId, t: u64, out: &mut Vec<u64>);

    /// Convenience form of [`encode_view`](Self::encode_view) returning a
    /// fresh buffer; allocates, so tests and diagnostics only.
    fn view_key(&self, run: &Run, i: AgentId, t: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.encode_view(run, i, t, &mut out);
        out
    }

    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Appends the paper's complete history `h(p_i, r, t)` onto `out`: initial
/// state, the *set* of clock values read up to and including `t` (tick
/// counts are not observable — a constant clock reveals nothing about
/// elapsed real time), and the sequence of events before `t`, each stamped
/// with the clock reading at its occurrence when clocks exist.
///
/// Appends nothing for an asleep processor (the empty history, shared by
/// all asleep points).
pub fn encode_complete_history(p: &ProcRecord, t: u64, out: &mut Vec<u64>) {
    let wake = match p.wake_time {
        Some(w) if t >= w => w,
        // Asleep: the empty history.
        _ => return,
    };
    out.push(1); // awake marker
    out.push(p.initial_state);
    // Clock value set, deduplicated (monotone, so dedup of the reading
    // sequence from wake to t), preceded by its length.
    match &p.clock {
        Some(c) => {
            let count_at = out.len();
            out.push(0); // length, patched below
            let mut last = None;
            for &v in &c[wake as usize..=t as usize] {
                if last != Some(v) {
                    out.push(v);
                    last = Some(v);
                }
            }
            out[count_at] = (out.len() - count_at - 1) as u64;
        }
        None => out.push(0),
    }
    // Events before t, clock-stamped, preceded by their count. Events are
    // sorted by time, so the prefix boundary is a binary search away.
    let prefix = p.events.partition_point(|e| e.time < t);
    out.push(prefix as u64);
    for e in &p.events[..prefix] {
        e.event.encode(out);
        out.push(p.clock_at(e.time).map_or(u64::MAX, |c| c));
    }
}

/// [`encode_complete_history`] into a fresh buffer; allocates, so tests
/// and the NG-condition checkers' reference paths only.
pub fn complete_history_key(p: &ProcRecord, t: u64) -> Vec<u64> {
    let mut out = Vec::new();
    encode_complete_history(p, t, &mut out);
    out
}

/// The complete-history interpretation (finest admissible view).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompleteHistory;

impl ViewFunction for CompleteHistory {
    fn encode_view(&self, run: &Run, i: AgentId, t: u64, out: &mut Vec<u64>) {
        encode_complete_history(run.proc(i), t, out);
    }

    fn name(&self) -> &'static str {
        "complete-history"
    }
}

/// The single-view interpretation `Λ` of Section 6: every processor has the
/// same view everywhere, so only system-valid facts are known — and they
/// are common knowledge (the hierarchy collapses).
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedLambda;

impl ViewFunction for SharedLambda {
    fn encode_view(&self, _run: &Run, _i: AgentId, _t: u64, _out: &mut Vec<u64>) {}

    fn name(&self) -> &'static str {
        "shared-lambda"
    }
}

/// A clock-only view: the processor sees nothing but its current clock
/// reading (and whether it is awake). With a global clock this makes "it
/// is 5 o'clock" common knowledge at 5 o'clock (Section 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockOnly;

impl ViewFunction for ClockOnly {
    fn encode_view(&self, run: &Run, i: AgentId, t: u64, out: &mut Vec<u64>) {
        let p = run.proc(i);
        if !p.awake_at(t) {
            return;
        }
        out.push(1);
        if let Some(c) = p.clock_at(t) {
            out.push(c);
        }
    }

    fn name(&self) -> &'static str {
        "clock-only"
    }
}

/// A view computed by an arbitrary state-projection function of the
/// history prefix — the "processor's local state" interpretations of
/// Section 6, which can *forget*.
///
/// The projection receives the processor record, the current time and the
/// scratch buffer to append its encoding onto, and must depend only on
/// the history (enforceable by test, not by type).
pub struct StateProjection<F> {
    name: &'static str,
    project: F,
}

impl<F> StateProjection<F>
where
    F: Fn(&ProcRecord, u64, &mut Vec<u64>),
{
    /// Creates a named projection view.
    pub fn new(name: &'static str, project: F) -> Self {
        StateProjection { name, project }
    }
}

impl<F> ViewFunction for StateProjection<F>
where
    F: Fn(&ProcRecord, u64, &mut Vec<u64>),
{
    fn encode_view(&self, run: &Run, i: AgentId, t: u64, out: &mut Vec<u64>) {
        (self.project)(run.proc(i), t, out);
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl<F> std::fmt::Debug for StateProjection<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StateProjection({})", self.name)
    }
}

/// The "last event only" projection: remembers the initial state, the most
/// recent event, and the clock reading — a deliberately forgetful local
/// state used by experiment E16.
pub fn last_event_view() -> StateProjection<impl Fn(&ProcRecord, u64, &mut Vec<u64>)> {
    StateProjection::new(
        "last-event",
        |p: &ProcRecord, t: u64, out: &mut Vec<u64>| {
            if !p.awake_at(t) {
                return;
            }
            out.push(1);
            out.push(p.initial_state);
            if let Some(c) = p.clock_at(t) {
                out.push(c);
            }
            if let Some(e) = p.events_before(t).last() {
                e.event.encode(out);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Message};
    use crate::run::RunBuilder;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    fn two_event_run() -> Run {
        RunBuilder::new("r", 2, 4)
            .wake(a(0), 0, 7)
            .wake(a(1), 1, 8)
            .event(
                a(0),
                1,
                Event::Send {
                    to: a(1),
                    msg: Message::tagged(1),
                },
            )
            .event(
                a(0),
                3,
                Event::Send {
                    to: a(1),
                    msg: Message::tagged(2),
                },
            )
            .build()
    }

    #[test]
    fn complete_history_grows_with_events_not_time() {
        let r = two_event_run();
        let v = CompleteHistory;
        // No clock: points between events are indistinguishable.
        assert_eq!(v.view_key(&r, a(0), 2), v.view_key(&r, a(0), 3));
        // Crossing an event changes the view.
        assert_ne!(v.view_key(&r, a(0), 3), v.view_key(&r, a(0), 4));
        // Events at time t are excluded from the view at t.
        assert_eq!(v.view_key(&r, a(0), 0), v.view_key(&r, a(0), 1));
    }

    #[test]
    fn asleep_points_share_the_empty_view() {
        let r = two_event_run();
        let v = CompleteHistory;
        assert_eq!(v.view_key(&r, a(1), 0), Vec::<u64>::new());
        assert_ne!(v.view_key(&r, a(1), 1), Vec::<u64>::new());
    }

    #[test]
    fn clock_dedup_hides_tick_counts() {
        // Constant clock: views at t=0 and t=2 identical (no event).
        let r = RunBuilder::new("r", 1, 2)
            .wake(a(0), 0, 0)
            .clock_readings(a(0), vec![5, 5, 5])
            .build();
        let v = CompleteHistory;
        assert_eq!(v.view_key(&r, a(0), 0), v.view_key(&r, a(0), 2));
        // Advancing clock: views differ.
        let r2 = RunBuilder::new("r", 1, 2)
            .wake(a(0), 0, 0)
            .clock_readings(a(0), vec![5, 5, 6])
            .build();
        assert_ne!(v.view_key(&r2, a(0), 0), v.view_key(&r2, a(0), 2));
    }

    #[test]
    fn shared_lambda_is_constant() {
        let r = two_event_run();
        let v = SharedLambda;
        assert_eq!(v.view_key(&r, a(0), 0), v.view_key(&r, a(1), 4));
        assert_eq!(v.name(), "shared-lambda");
    }

    #[test]
    fn clock_only_sees_reading() {
        let r = RunBuilder::new("r", 1, 3)
            .wake(a(0), 0, 9)
            .clock_readings(a(0), vec![0, 1, 1, 2])
            .build();
        let v = ClockOnly;
        assert_eq!(v.view_key(&r, a(0), 1), v.view_key(&r, a(0), 2));
        assert_ne!(v.view_key(&r, a(0), 0), v.view_key(&r, a(0), 1));
    }

    #[test]
    fn last_event_view_forgets() {
        // After a second identical event, history distinguishes but the
        // last-event state does not distinguish "one send" from "two
        // sends of the same message".
        let r = RunBuilder::new("r", 2, 4)
            .wake(a(0), 0, 0)
            .event(
                a(0),
                1,
                Event::Send {
                    to: a(1),
                    msg: Message::tagged(1),
                },
            )
            .event(
                a(0),
                2,
                Event::Send {
                    to: a(1),
                    msg: Message::tagged(1),
                },
            )
            .build();
        let forgetful = last_event_view();
        let full = CompleteHistory;
        assert_eq!(
            forgetful.view_key(&r, a(0), 2),
            forgetful.view_key(&r, a(0), 3)
        );
        assert_ne!(full.view_key(&r, a(0), 2), full.view_key(&r, a(0), 3));
    }
}
