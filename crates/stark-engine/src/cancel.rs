//! Cooperative cancellation and job deadlines.
//!
//! Spark bounds tail latency by killing straggling or obsolete task
//! attempts (`spark.speculation`, job cancellation); an in-process
//! engine cannot kill a thread, so cancellation here is *cooperative*: a
//! [`CancellationToken`] is plumbed from the [`Context`](crate::Context)
//! through the executor into every task attempt, and tasks observe it at
//! partition boundaries and between fused-op record chunks. A tripped
//! token surfaces as a non-retryable
//! [`TaskErrorKind::Cancelled`](crate::TaskErrorKind) /
//! [`TaskErrorKind::DeadlineExceeded`](crate::TaskErrorKind) task error.
//!
//! Tokens form a chain: every job derives a child of the context's root
//! token (or of the ambient token installed by a deadline scope), and
//! every task attempt derives a child of its job's token. Cancelling a
//! parent cancels the whole subtree; cancelling one attempt's token —
//! how speculative execution retires the losing duplicate — touches
//! nothing else. Deadlines ride on the same chain: a token constructed
//! with a deadline reports [`CancelReason::DeadlineExceeded`] once the
//! instant passes, with no background timer thread.
//!
//! Because a cache cell only ever stores fully-computed partitions (a
//! cancelled task unwinds *before* its value is published), cancellation
//! can never leave a poisoned cache entry: a later run without a
//! deadline simply recomputes whatever the cancelled run did not finish.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a token reports itself cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancellationToken::cancel`] was called on the token or one of
    /// its ancestors (an explicit kill: a speculation loser, or
    /// [`Context::cancel`](crate::Context::cancel)).
    Cancelled,
    /// A deadline somewhere on the token chain has passed.
    DeadlineExceeded,
}

/// A shareable cancellation flag with an optional deadline, observed
/// cooperatively by running tasks. See the [module docs](self).
#[derive(Debug)]
pub struct CancellationToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<CancellationToken>>,
}

impl CancellationToken {
    /// A fresh root token: not cancelled, no deadline.
    pub fn new() -> Arc<Self> {
        Arc::new(CancellationToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
            parent: None,
        })
    }

    /// A root token that trips `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> Arc<Self> {
        Arc::new(CancellationToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(Instant::now() + deadline),
            parent: None,
        })
    }

    /// A child token: cancelled whenever `self` is, independently
    /// cancellable without affecting `self`.
    pub fn child(self: &Arc<Self>) -> Arc<Self> {
        self.child_with_deadline(None)
    }

    /// A child token that additionally trips `deadline` from now (when
    /// given). The parent's own deadline still applies to the child.
    pub fn child_with_deadline(self: &Arc<Self>, deadline: Option<Duration>) -> Arc<Self> {
        Arc::new(CancellationToken {
            cancelled: AtomicBool::new(false),
            deadline: deadline.map(|d| Instant::now() + d),
            parent: Some(Arc::clone(self)),
        })
    }

    /// Trips the token: every holder (and every descendant token)
    /// observes cancellation from now on. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Clears an explicit [`CancellationToken::cancel`] on *this* token
    /// (not ancestors). Deadlines are immutable and cannot be reset.
    pub fn reset(&self) {
        self.cancelled.store(false, Ordering::Release);
    }

    /// Whether the token (or any ancestor) is cancelled or past a
    /// deadline, and why. Explicit cancellation wins over a deadline
    /// when both apply.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        let mut deadline_hit = false;
        let mut node = Some(self);
        while let Some(t) = node {
            if t.cancelled.load(Ordering::Acquire) {
                return Some(CancelReason::Cancelled);
            }
            if let Some(d) = t.deadline {
                deadline_hit |= Instant::now() >= d;
            }
            node = t.parent.as_deref();
        }
        deadline_hit.then_some(CancelReason::DeadlineExceeded)
    }

    /// Whether the token (or any ancestor) is cancelled or past a deadline.
    pub fn is_cancelled(&self) -> bool {
        self.cancel_reason().is_some()
    }
}

thread_local! {
    /// The token governing work on the current thread: installed by the
    /// executor around each task attempt, and by deadline scopes around
    /// a block of driver code. Jobs started on this thread chain their
    /// own token under it, which is how a deadline propagates into
    /// nested shuffle jobs without any explicit plumbing.
    static CURRENT: RefCell<Option<Arc<CancellationToken>>> = const { RefCell::new(None) };
}

/// The token currently governing this thread, if any.
pub fn current() -> Option<Arc<CancellationToken>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// RAII guard installing a token as the current thread's governing
/// token; restores the previous one on drop. Obtained from
/// [`Context::deadline_scope`](crate::Context::deadline_scope) or
/// [`scope`].
pub struct CancelScope {
    prev: Option<Arc<CancellationToken>>,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Installs `token` as the current thread's governing token until the
/// returned guard drops. Jobs started while the guard lives chain under
/// `token` (and therefore observe its cancellation and deadline).
pub fn scope(token: Arc<CancellationToken>) -> CancelScope {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token));
    CancelScope { prev }
}

/// Panics with a typed cancellation abort if the current thread's token
/// is tripped. The panic carries the [`CancelReason`], so the executor
/// classifies it as `Cancelled` / `DeadlineExceeded` without string
/// matching. Called at partition boundaries and between record chunks.
pub(crate) fn abort_if_cancelled() {
    if let Some(token) = current() {
        if let Some(reason) = token.cancel_reason() {
            abort_with(reason);
        }
    }
}

/// Panics with the typed abort payload for `reason`.
pub(crate) fn abort_with(reason: CancelReason) -> ! {
    let (kind, message) = match reason {
        CancelReason::Cancelled => {
            (crate::executor::TaskErrorKind::Cancelled, "task cancelled cooperatively")
        }
        CancelReason::DeadlineExceeded => {
            (crate::executor::TaskErrorKind::DeadlineExceeded, "job deadline exceeded")
        }
    };
    std::panic::panic_any(crate::executor::TaskAbort { kind, message: message.to_string() })
}

/// How many records a fused pipeline pulls between cancellation checks.
/// Small enough that a straggling task notices a speculative winner or
/// a passed deadline within microseconds, large enough to amortise the
/// `Instant::now` deadline probe to noise.
const CHUNK: u32 = 128;

/// Iterator adapter that observes the current thread's token every
/// [`CHUNK`] records — the "between fused-op record chunks" half of
/// cooperative cancellation. The token is resolved once at construction
/// (i.e. at task start); outside a task it is `None` and the adapter
/// degrades to a bare counter.
pub(crate) struct Checked<I> {
    inner: I,
    token: Option<Arc<CancellationToken>>,
    until_check: u32,
}

/// Wraps `inner` with per-chunk cancellation checks against the current
/// thread's token.
pub(crate) fn checked<I: Iterator>(inner: I) -> Checked<I> {
    Checked { inner, token: current(), until_check: CHUNK }
}

impl<I: Iterator> Iterator for Checked<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        if let Some(token) = &self.token {
            self.until_check -= 1;
            if self.until_check == 0 {
                self.until_check = CHUNK;
                if let Some(reason) = token.cancel_reason() {
                    abort_with(reason);
                }
            }
        }
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Sleeps for `duration` in small slices, observing the current
/// thread's token between slices — so a stalled task (e.g. a
/// [`Fault::Delay`](crate::Fault) straggler) releases its
/// worker promptly once a speculative duplicate wins or a deadline
/// passes, instead of holding the job open for the full stall.
pub(crate) fn sleep_cooperative(duration: Duration) {
    const SLICE: Duration = Duration::from_millis(1);
    let until = Instant::now() + duration;
    loop {
        abort_if_cancelled();
        let now = Instant::now();
        if now >= until {
            return;
        }
        std::thread::sleep((until - now).min(SLICE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_clear() {
        let t = CancellationToken::new();
        assert_eq!(t.cancel_reason(), None);
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_propagates_to_children_not_parents() {
        let root = CancellationToken::new();
        let child = root.child();
        let grandchild = child.child();
        child.cancel();
        assert_eq!(root.cancel_reason(), None);
        assert_eq!(child.cancel_reason(), Some(CancelReason::Cancelled));
        assert_eq!(grandchild.cancel_reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let t = CancellationToken::with_deadline(Duration::from_millis(5));
        assert_eq!(t.cancel_reason(), None);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(t.cancel_reason(), Some(CancelReason::DeadlineExceeded));
        // children inherit the parent's deadline
        assert_eq!(t.child().cancel_reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancellationToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        t.cancel();
        assert_eq!(t.cancel_reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn reset_clears_explicit_cancel_only() {
        let t = CancellationToken::new();
        t.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn scope_installs_and_restores() {
        assert!(current().is_none());
        let outer = CancellationToken::new();
        {
            let _g = scope(outer.clone());
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
            let inner = CancellationToken::new();
            {
                let _g2 = scope(inner.clone());
                assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            }
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        }
        assert!(current().is_none());
    }

    #[test]
    fn checked_iterator_aborts_on_cancel() {
        let token = CancellationToken::new();
        let _g = scope(token.clone());
        token.cancel();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checked(0..100_000u32).sum::<u32>()
        }));
        assert!(r.is_err(), "checked iterator must abort under a cancelled token");
    }

    #[test]
    fn checked_iterator_passes_through_without_token() {
        let v: Vec<u32> = checked(0..1000u32).collect();
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn cooperative_sleep_aborts_early() {
        let token = CancellationToken::new();
        token.cancel();
        let _g = scope(token);
        let started = Instant::now();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sleep_cooperative(Duration::from_secs(10))
        }));
        assert!(r.is_err());
        assert!(started.elapsed() < Duration::from_secs(1), "must not sleep out the stall");
    }
}
