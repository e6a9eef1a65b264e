//! Fault injection at the enumeration boundary (requires the
//! `failpoints` cargo feature): every forced failure of the
//! `netsim::enumerate` site must surface from [`enumerate`] as a typed
//! error, and clearing it must restore the full run set.
//!
//! `FailScenario::setup` holds a process-global lock, so these tests
//! serialize against each other (and against any other failpoint test
//! in this binary).

#![cfg(feature = "failpoints")]

use hm_kripke::AgentId;
use hm_limits::failpoints::{Action, ExhaustKind, FailScenario};
use hm_limits::{Budget, Limits, Phase, Resource};
use hm_netsim::Command;
use hm_netsim::{
    enumerate, EnumerateError, Enumeration, ExecutionSpec, FnProtocol, LocalView, LossyFixedDelay,
};
use hm_runs::Message;

const MSGS: usize = 8;

/// p0 fires a burst of lossy messages: 2^MSGS runs per spec.
fn burst() -> impl hm_netsim::JointProtocol {
    FnProtocol::new("burst", move |v: &LocalView<'_>| {
        if v.me.index() == 0 && v.sent().count() < MSGS {
            vec![Command::Send {
                to: AgentId::new(1),
                msg: Message::new(1, v.sent().count() as u64),
            }]
        } else {
            Vec::new()
        }
    })
}

fn spec() -> ExecutionSpec {
    ExecutionSpec::simple(2, MSGS as u64 + 2)
}

fn run(specs: &[ExecutionSpec], budget: &Budget) -> Result<Enumeration, EnumerateError> {
    enumerate(&burst(), &LossyFixedDelay { delay: 1 }, specs, budget)
}

#[test]
fn enumeration_exhaustion_is_a_typed_error() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Exhaust(ExhaustKind::Deadline));
    let budget = Limits::none().max_runs(1 << 12).budget();
    match run(&[spec()], &budget).unwrap_err() {
        EnumerateError::Limit(e) => {
            assert_eq!(e.resource, Resource::Deadline);
            assert_eq!(e.phase, Phase::Enumerate);
        }
        other => panic!("expected Limit, got {other:?}"),
    }
}

#[test]
fn enumeration_cancellation_is_a_typed_error() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Cancel);
    let budget = Limits::none().max_runs(1 << 12).budget();
    match run(&[spec()], &budget).unwrap_err() {
        EnumerateError::Limit(e) => assert_eq!(e.resource, Resource::Cancelled),
        other => panic!("expected Limit(Cancelled), got {other:?}"),
    }
}

#[test]
fn cleared_failpoint_restores_normal_enumeration() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Exhaust(ExhaustKind::Runs));
    assert!(run(&[spec()], &Budget::unlimited()).is_err());
    sc.clear("netsim::enumerate");
    let e = run(&[spec()], &Budget::unlimited()).expect("failpoint gone, enumeration recovers");
    assert_eq!(e.runs.len(), 1 << MSGS);
    assert!(!e.truncated);
}

#[test]
fn multi_spec_enumeration_fails_typed() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Exhaust(ExhaustKind::Runs));
    let specs = [spec().with_label("a"), spec().with_label("b")];
    // Partial mode does not soften a failure injected at the boundary.
    let budget = Limits::none().allow_partial(true).budget();
    match run(&specs, &budget).unwrap_err() {
        EnumerateError::Limit(e) => {
            assert_eq!(e.resource, Resource::Runs);
            assert_eq!(e.phase, Phase::Enumerate);
        }
        other => panic!("expected Limit(Runs), got {other:?}"),
    }
}
