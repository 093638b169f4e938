//! Shim synchronization primitives.
//!
//! Inside a model run (a closure executed by [`crate::explore`]) every
//! operation is a scheduling decision point of the controlled scheduler.
//! Outside a model run the shims behave exactly like their `std::sync`
//! counterparts, so `--cfg bvc_check` builds of the crates that use
//! [`crate::facade`] still work normally.
//!
//! Atomics model *interleavings*, not weak memory: inside a run the
//! requested `Ordering` is recorded in the operation log but the effect
//! executes sequentially consistent (each access is a separate decision
//! point). Racy interleavings are still explored — what is not modelled
//! is reordering within a single thread.

use std::sync::atomic::Ordering;
use std::sync::{
    Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
    TryLockError,
};
use std::time::Duration;

use crate::sched::{current, Controller, Ctx, Wake};

pub use std::sync::Arc;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutex that becomes a scheduler-visible lock inside a model run and a
/// plain `std::sync::Mutex` elsewhere.
pub struct Mutex<T: ?Sized> {
    id: Option<usize>,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex; registers it with the scheduler when called from
    /// model code.
    pub fn new(value: T) -> Mutex<T> {
        let id = current().map(|c| c.ctrl.register_mutex());
        Mutex { id, inner: StdMutex::new(value) }
    }

    /// Consumes the mutex, returning the value. Sole ownership makes this
    /// invisible to the scheduler.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex (a decision point inside a model run).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match (current(), self.id) {
            (Some(Ctx { ctrl, tid }), Some(mid)) => {
                ctrl.mutex_lock(tid, mid);
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(self.take_real(mid)),
                    model: Some((ctrl, tid)),
                })
            }
            _ => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard { lock: self, inner: Some(g), model: None }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(p.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Takes the real lock after the scheduler granted logical ownership;
    /// it is free by construction (the model serializes accesses).
    fn take_real(&self, mid: usize) -> StdMutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("model mutex m{mid} held outside the scheduler")
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("inner", &self.inner).finish()
    }
}

/// Guard returned by [`Mutex::lock`]; releasing it is scheduler-visible
/// inside a model run.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
    model: Option<(Arc<Controller>, usize)>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("mutex guard already released")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("mutex guard already released")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then tell the scheduler; unlock is
        // not a decision point and never panics (drops run during model
        // teardown unwinds too).
        self.inner = None;
        if let (Some((ctrl, tid)), Some(mid)) = (self.model.take(), self.lock.id) {
            ctrl.mutex_unlock(tid, mid);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Result of a [`Condvar::wait_timeout`]; mirrors
/// `std::sync::WaitTimeoutResult` (which cannot be constructed outside
/// std).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable whose park/notify operations are
/// scheduler-visible inside a model run.
pub struct Condvar {
    id: Option<usize>,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a condvar; registers it with the scheduler when called
    /// from model code.
    pub fn new() -> Condvar {
        let id = current().map(|c| c.ctrl.register_condvar());
        Condvar { id, inner: StdCondvar::new() }
    }

    /// Atomically releases the guard's mutex and parks. Inside a model
    /// run, with [`crate::Config::spurious`] the scheduler may wake the
    /// waiter without a notification — callers must use `while`-predicate
    /// loops.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match self.model_wait(guard, false) {
            Ok((g, _)) => Ok(g),
            Err(guard) => {
                let lock = guard.lock;
                let std_guard = into_std(guard);
                match self.inner.wait(std_guard) {
                    Ok(g) => Ok(MutexGuard { lock, inner: Some(g), model: None }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        lock,
                        inner: Some(p.into_inner()),
                        model: None,
                    })),
                }
            }
        }
    }

    /// [`Condvar::wait`] with a timeout. Inside a model run the duration
    /// is not simulated: the timeout is an always-enabled nondeterministic
    /// wake, so exploration covers both the notified and the timed-out
    /// path regardless of the requested duration.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match self.model_wait(guard, true) {
            Ok((g, reason)) => Ok((g, WaitTimeoutResult(reason == Wake::Timeout))),
            Err(guard) => {
                let lock = guard.lock;
                let std_guard = into_std(guard);
                match self.inner.wait_timeout(std_guard, dur) {
                    Ok((g, t)) => Ok((
                        MutexGuard { lock, inner: Some(g), model: None },
                        WaitTimeoutResult(t.timed_out()),
                    )),
                    Err(p) => {
                        let (g, t) = p.into_inner();
                        Err(PoisonError::new((
                            MutexGuard { lock, inner: Some(g), model: None },
                            WaitTimeoutResult(t.timed_out()),
                        )))
                    }
                }
            }
        }
    }

    /// Wakes one parked waiter (the lowest-tid one inside a model run).
    pub fn notify_one(&self) {
        match (current(), self.id) {
            (Some(Ctx { ctrl, tid }), Some(cvid)) => ctrl.notify(tid, cvid, false),
            _ => self.inner.notify_one(),
        }
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        match (current(), self.id) {
            (Some(Ctx { ctrl, tid }), Some(cvid)) => ctrl.notify(tid, cvid, true),
            _ => self.inner.notify_all(),
        }
    }

    /// Model-path wait; hands the guard back via `Err` when this is not a
    /// model wait (no model context or a non-model guard).
    fn model_wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout_ok: bool,
    ) -> Result<(MutexGuard<'a, T>, Wake), MutexGuard<'a, T>> {
        let cvid = match (current(), self.id) {
            (Some(_), Some(cvid)) => cvid,
            _ => return Err(guard),
        };
        let (ctrl, tid) = match guard.model.take() {
            Some(m) => m,
            None => return Err(guard),
        };
        let lock = guard.lock;
        let mid = match lock.id {
            Some(mid) => mid,
            None => {
                guard.model = Some((ctrl, tid));
                return Err(guard);
            }
        };
        // Defuse the guard (model already cleared, drop the real lock
        // without a scheduler unlock — cond_wait performs the logical
        // release atomically with parking).
        guard.inner = None;
        std::mem::forget(guard);
        let reason = ctrl.cond_wait(tid, cvid, mid, timeout_ok);
        Ok((
            MutexGuard { lock, inner: Some(lock.take_real(mid)), model: Some((ctrl, tid)) },
            reason,
        ))
    }
}

/// Unwraps a fallback-path guard into the underlying std guard.
fn into_std<'a, T: ?Sized>(mut guard: MutexGuard<'a, T>) -> StdMutexGuard<'a, T> {
    let g = guard.inner.take().expect("mutex guard already released");
    std::mem::forget(guard);
    g
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! shim_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Atomic shim: each access is a decision point inside a model
        /// run; a plain std atomic elsewhere.
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates the atomic with an initial value.
            pub const fn new(v: $prim) -> $name {
                $name { inner: <$std>::new(v) }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $prim {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("load {} ({order:?})", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.load(Ordering::SeqCst)
                } else {
                    self.inner.load(order)
                }
            }

            /// Atomic store.
            pub fn store(&self, v: $prim, order: Ordering) {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("store {} ({order:?})", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.store(v, Ordering::SeqCst);
                } else {
                    self.inner.store(v, order);
                }
            }

            /// Atomic swap.
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("swap {} ({order:?})", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.swap(v, Ordering::SeqCst)
                } else {
                    self.inner.swap(v, order)
                }
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("fetch_add {} ({order:?})", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.fetch_add(v, Ordering::SeqCst)
                } else {
                    self.inner.fetch_add(v, order)
                }
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("fetch_sub {} ({order:?})", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.fetch_sub(v, Ordering::SeqCst)
                } else {
                    self.inner.fetch_sub(v, order)
                }
            }

            /// Atomic max, returning the previous value.
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("fetch_max {} ({order:?})", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.fetch_max(v, Ordering::SeqCst)
                } else {
                    self.inner.fetch_max(v, order)
                }
            }

            /// Atomic read-modify-write via a closure. One decision point:
            /// the whole CAS loop is a single visible operation, matching
            /// the atomicity of a successful `fetch_update`.
            pub fn fetch_update<F>(
                &self,
                set_order: Ordering,
                fetch_order: Ordering,
                f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                if let Some(ctx) = current() {
                    ctx.ctrl.op(ctx.tid, || format!("fetch_update {}", stringify!($name)));
                    // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
                    self.inner.fetch_update(Ordering::SeqCst, Ordering::SeqCst, f)
                } else {
                    self.inner.fetch_update(set_order, fetch_order, f)
                }
            }
        }
    };
}

shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Atomic boolean shim: each access is a decision point inside a model
/// run; a plain std atomic elsewhere.
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates the atomic with an initial value.
    pub const fn new(v: bool) -> AtomicBool {
        AtomicBool { inner: std::sync::atomic::AtomicBool::new(v) }
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> bool {
        if let Some(ctx) = current() {
            ctx.ctrl.op(ctx.tid, || format!("load AtomicBool ({order:?})"));
            // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
            self.inner.load(Ordering::SeqCst)
        } else {
            self.inner.load(order)
        }
    }

    /// Atomic store.
    pub fn store(&self, v: bool, order: Ordering) {
        if let Some(ctx) = current() {
            ctx.ctrl.op(ctx.tid, || format!("store AtomicBool ({order:?})"));
            // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
            self.inner.store(v, Ordering::SeqCst);
        } else {
            self.inner.store(v, order);
        }
    }

    /// Atomic swap.
    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        if let Some(ctx) = current() {
            ctx.ctrl.op(ctx.tid, || format!("swap AtomicBool ({order:?})"));
            // ordering: model effects are always SeqCst — the checker models interleavings, not weak memory.
            self.inner.swap(v, Ordering::SeqCst)
        } else {
            self.inner.swap(v, order)
        }
    }
}
