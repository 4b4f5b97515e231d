// Fixture: clean under `nondet-taint`. An `if let` binding is scoped to
// its guarded block, so the wall-clock `t` inside does not shadow the
// clean literal `t` that is pushed afterwards.

pub fn stamp_then_queue(q: &mut Scheduler, stamp: Option<u64>) {
    let t = 5;
    // simlint::allow(no-wall-clock): the taint source of this fixture; only the scope of `t` is under test
    if let Some(t) = stamp.map(|_| Instant::now()) {
        consume(t);
    }
    q.push(t);
}
