// Fixture: lock-order graph (whole-workspace cycle detection).
// Positive cases: an A->B / B->A acquisition inversion split across two
// functions, plus a direct re-acquisition self-loop.
// Negative cases: same-order acquisitions, guard dropped before the second
// lock, and an engine lock followed by another lock that is never taken in
// the opposite order.

pub fn positive_ab(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}

pub fn positive_ba(&self) {
    let b = self.beta.lock();
    let a = self.alpha.lock();
    drop(a);
    drop(b);
}

pub fn positive_self_reacquire(&self) {
    let g1 = self.gamma.lock();
    let g2 = self.gamma.lock();
    drop(g2);
    drop(g1);
}

pub fn negative_same_order_again(&self) {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}

pub fn negative_drop_between(&self) {
    let b = self.beta.lock();
    drop(b);
    let a = self.alpha.lock();
    drop(a);
}

pub fn negative_engine_then_state(&self) {
    let engine = self.engine.lock();
    let st = self.delta.lock();
    drop(st);
    drop(engine);
}
