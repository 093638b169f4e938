//! Exhaustive model checks of the solve cache's single-flight path.
//!
//! Runs only under `RUSTFLAGS="--cfg bvc_check"`. The single-flight
//! protocol (admission gate → in-flight registry → leader solve →
//! publish + notify_all) is checked over every interleaving up to the
//! preemption bound, in spurious-wakeup mode, for its three core
//! properties:
//!
//! * **exactly one leader** per fingerprint, however many requests race;
//! * **no lost wakeup**: every follower parked on the flight condvar is
//!   eventually released with the leader's published result (a lost
//!   notification would surface as a model deadlock);
//! * **leader panics propagate**: followers observe a `Failed` outcome
//!   rather than parking forever, and the panic does not poison the
//!   registry for later requests;
//! * **stored replies die with their cells**: a hit is never answered with
//!   a reply stored for an evicted or replaced cell.
#![cfg(bvc_check)]

use bvc_check::sync::Arc;
use bvc_check::{explore, replay, Config, Report};
use bvc_serve::cache::{CachedCell, Fetched, SolveCache, SolveFailure};

fn cell(v: f64) -> CachedCell {
    CachedCell { vals: vec![v], solve_ms: 0.0, states: 1, preloaded: false }
}

fn model_config() -> Config {
    // Spurious mode: every condvar park may also wake spuriously, so an
    // `if`-guarded wait (rather than `while`) would be caught here.
    Config { max_preemptions: 2, spurious: true, ..Config::default() }
}

fn assert_exhaustive_pass(report: &Report, what: &str) {
    assert!(
        report.violation.is_none(),
        "{what}: unexpected violation:\n{}",
        report.violation.as_ref().unwrap()
    );
    assert!(report.exhaustive_pass(), "{what}: exploration was capped (not exhaustive)");
}

/// Two requests race on one cold fingerprint: exactly one runs the
/// solver; both end with the same value; the in-flight registry is empty
/// afterwards so a later miss solves again.
#[test]
fn single_flight_has_exactly_one_leader() {
    let report = explore(&model_config(), || {
        let cache = Arc::new(SolveCache::new(8, 1, 4));
        let c2 = Arc::clone(&cache);
        let t = bvc_check::thread::spawn(move || match c2.get_or_solve(7, &[], || Ok(cell(7.0))) {
            Fetched::Solved { cell, leader } => (cell.vals[0], leader),
            Fetched::Hit { cell, .. } => (cell.vals[0], false),
            other => panic!("unexpected outcome {other:?}"),
        });
        let here = match cache.get_or_solve(7, &[], || Ok(cell(7.0))) {
            Fetched::Solved { cell, leader } => (cell.vals[0], leader),
            Fetched::Hit { cell, .. } => (cell.vals[0], false),
            other => panic!("unexpected outcome {other:?}"),
        };
        let there = t.join().unwrap();
        assert_eq!(here.0, 7.0);
        assert_eq!(there.0, 7.0);
        assert_eq!(cache.solves_started(), 1, "exactly one solver run");
        assert!(
            !(here.1 && there.1),
            "both requests claim leadership (solves_started race masked)"
        );
    });
    assert_exhaustive_pass(&report, "single-flight");
}

/// A leader panic must release the follower with `Failed` (no lost
/// wakeup, no deadlock) and deregister the flight so a retry solves.
#[test]
fn leader_panic_releases_followers_and_retries() {
    let report = explore(&model_config(), || {
        let cache = Arc::new(SolveCache::new(8, 1, 4));
        let c2 = Arc::clone(&cache);
        let t = bvc_check::thread::spawn(move || {
            match c2.get_or_solve(9, &[], || -> Result<CachedCell, bvc_mdp::MdpError> {
                panic!("solver exploded")
            }) {
                Fetched::Failed { failure: SolveFailure::Panicked(msg), .. } => {
                    assert!(msg.contains("solver exploded"), "panic message lost: {msg}");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        });
        match cache.get_or_solve(9, &[], || -> Result<CachedCell, bvc_mdp::MdpError> {
            panic!("solver exploded")
        }) {
            Fetched::Failed { failure: SolveFailure::Panicked(msg), .. } => {
                assert!(msg.contains("solver exploded"), "panic message lost: {msg}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        t.join().unwrap();
        // Failures are not cached and the flight is deregistered: a
        // retry runs the solver again and succeeds.
        match cache.get_or_solve(9, &[], || Ok(cell(9.0))) {
            Fetched::Solved { cell, leader: true } => assert_eq!(cell.vals[0], 9.0),
            other => panic!("retry after panic failed: {other:?}"),
        }
    });
    assert_exhaustive_pass(&report, "leader panic");
}

/// The admission gate under contention: with `queue_cap == 1`, two cold
/// requests for *different* fingerprints admit at most one; the loser
/// sheds rather than blocking, and the admission ticket is returned so a
/// later request is admitted again.
#[test]
fn admission_gate_sheds_and_restores() {
    let report = explore(&model_config(), || {
        let cache = Arc::new(SolveCache::new(8, 1, 1));
        let c2 = Arc::clone(&cache);
        let t = bvc_check::thread::spawn(move || {
            matches!(c2.get_or_solve(1, &[], || Ok(cell(1.0))), Fetched::Shed)
        });
        let here_shed = matches!(cache.get_or_solve(2, &[], || Ok(cell(2.0))), Fetched::Shed);
        let there_shed = t.join().unwrap();
        assert!(!(here_shed && there_shed), "both requests shed with a free slot");
        // Every admission ticket was returned: a later cold request for a
        // third fingerprint must be admitted.
        match cache.get_or_solve(3, &[], || Ok(cell(3.0))) {
            Fetched::Solved { .. } => {}
            other => panic!("admission ticket leaked: {other:?}"),
        }
    });
    assert_exhaustive_pass(&report, "admission gate");
}

/// The reply a request gets, rendered the way `Service::cached_cell` does:
/// a hit's stored reply, or else a render that the first hit stores.
fn reply(cache: &SolveCache, fp: u64) -> (Vec<u8>, Vec<u8>) {
    let render = |cell: &CachedCell| format!("{}", cell.vals[0]).into_bytes();
    match cache.get_or_solve(fp, &[], || Ok(cell(70.0))) {
        Fetched::Hit { cell, reply: Some(body) } => (body, render(&cell)),
        Fetched::Hit { cell, reply: None } => {
            let body = render(&cell);
            cache.store_reply(fp, &cell, &[], &body);
            (body.clone(), body)
        }
        Fetched::Solved { cell, .. } => (render(&cell), render(&cell)),
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// Two workers take the first hit on one cell while a third, in the same
/// one-cell shard, inserts another cell (evicting the first) and then
/// replaces the first fingerprint with a new cell. Every reply equals a
/// fresh render of the cell it was served for, and afterwards no stored
/// reply outlives its cell, replaced or evicted.
#[test]
fn stored_replies_die_with_their_cells() {
    let report = explore(&model_config(), || {
        let cache = Arc::new(SolveCache::new(1, 1, 4));
        cache.insert(7, Arc::new(cell(7.0)));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                bvc_check::thread::spawn(move || reply(&cache, 7))
            })
            .collect();
        cache.insert(8, Arc::new(cell(8.0)));
        cache.insert(7, Arc::new(cell(17.0)));
        for worker in workers {
            let (served, fresh) = worker.join().unwrap();
            assert_eq!(served, fresh, "a hit was answered with another cell's reply");
        }
        assert!(cache.stored_replies() <= cache.len(), "a stored reply outlived its cell");
        let (served, fresh) = reply(&cache, 7);
        assert_eq!(served, fresh, "a stored reply outlived its cell");
        // Cell 7 now has a stored reply; evicting it must drop the reply.
        cache.insert(9, Arc::new(cell(9.0)));
        assert_eq!(cache.stored_replies(), 0, "a stored reply outlived its evicted cell");
    });
    assert_exhaustive_pass(&report, "stored replies");
}

/// Deterministic replay smoke test on a deliberately broken invariant:
/// asserting *two* leaders must fail, and the reported schedule must
/// replay to the same violation.
#[test]
fn broken_invariant_found_and_replays() {
    let scenario = || {
        let cache = Arc::new(SolveCache::new(8, 1, 4));
        let c2 = Arc::clone(&cache);
        let t = bvc_check::thread::spawn(move || {
            let _ = c2.get_or_solve(7, &[], || Ok(cell(7.0)));
        });
        let _ = cache.get_or_solve(7, &[], || Ok(cell(7.0)));
        t.join().unwrap();
        assert_eq!(cache.solves_started(), 2, "deliberately wrong invariant");
    };
    let report = explore(&model_config(), scenario);
    let v = report.violation.as_ref().expect("wrong invariant must be caught");
    for _ in 0..3 {
        let r = replay(&model_config(), &v.schedule, scenario);
        let rv = r.violation.as_ref().expect("schedule must replay");
        assert_eq!(rv.kind, v.kind);
        assert_eq!(rv.schedule, v.schedule);
    }
}
