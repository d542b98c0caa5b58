//! Cooperative cancellation and statement deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle carrying two pieces of
//! state: an explicit *cancelled* flag anyone holding a clone can set,
//! and an optional *deadline* read against a shared [`Clock`]. Work
//! that may run long — operator loops in the SQL executor, LLM retry
//! loops, single-flight waiters — calls [`CancelToken::check`] at its
//! natural batch boundaries and unwinds cleanly with a
//! [`CancelReason`] when the statement's time is up.
//!
//! The executor carries its statement's token in its context; layers
//! without a parameter path to the executor (the resilient model wrapper,
//! deep inside a `ScalarUdf::invoke`) read the **current-token**
//! thread-local that [`with_current`] scopes around a statement, via
//! [`current`]. Pool threads do not inherit it: a fan-out
//! (`swan_llm::parallel::complete_many`) re-installs it in every job.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::time::ClockHandle;

/// Why a [`CancelToken::check`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// Someone called [`CancelToken::cancel`].
    Cancelled,
    /// The deadline passed on the token's clock.
    DeadlineExceeded,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Cancelled => write!(f, "cancelled"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

struct TokenState {
    cancelled: AtomicBool,
    /// Absolute deadline on `clock` (None = unbounded).
    deadline: Option<Duration>,
    clock: Option<ClockHandle>,
}

/// Cloneable cancellation/deadline handle; all clones share one state.
#[derive(Clone)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.state.deadline)
            .finish()
    }
}

impl CancelToken {
    /// A token that never expires on its own (it can still be
    /// [`cancel`](CancelToken::cancel)led). The common default: checks
    /// against it are a single relaxed atomic load.
    pub fn unbounded() -> Self {
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: None,
                clock: None,
            }),
        }
    }

    /// A token that expires `timeout` from now on `clock`.
    pub fn with_timeout(clock: ClockHandle, timeout: Duration) -> Self {
        let deadline = clock.now() + timeout;
        CancelToken {
            state: Arc::new(TokenState {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
                clock: Some(clock),
            }),
        }
    }

    /// Flip the cancelled flag; every clone observes it.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Relaxed)
    }

    /// The clock this token's deadline is read against, if it has one.
    pub fn clock(&self) -> Option<&ClockHandle> {
        self.state.clock.as_ref()
    }

    /// Time left until the deadline (None = unbounded). Zero means the
    /// deadline already passed.
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.state.deadline?;
        let clock = self.state.clock.as_ref()?;
        Some(deadline.saturating_sub(clock.now()))
    }

    /// The cooperative check: `Ok` to keep working, `Err` with the
    /// reason once the token is cancelled or past its deadline.
    pub fn check(&self) -> Result<(), CancelReason> {
        if self.is_cancelled() {
            return Err(CancelReason::Cancelled);
        }
        if let (Some(deadline), Some(clock)) =
            (self.state.deadline, self.state.clock.as_ref())
        {
            if clock.now() >= deadline {
                return Err(CancelReason::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

thread_local! {
    /// The statement-scoped token, visible to layers with no parameter
    /// path from the executor (UDF internals, the resilient model).
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Run `f` with `token` installed as this thread's current token,
/// restoring the previous one (nesting-safe) afterwards — including on
/// unwind.
pub fn with_current<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token.clone()));
    let _restore = Restore(prev);
    f()
}

/// The token installed by the nearest enclosing [`with_current`], if any.
/// Pool workers do NOT inherit the submitting thread's token — fan-out
/// code must re-install it in each worker closure.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Check the current token (no-op `Ok` when none is installed).
pub fn check_current() -> Result<(), CancelReason> {
    CURRENT.with(|c| match &*c.borrow() {
        Some(token) => token.check(),
        None => Ok(()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimClock;

    #[test]
    fn unbounded_token_only_fails_when_cancelled() {
        let t = CancelToken::unbounded();
        assert_eq!(t.check(), Ok(()));
        assert_eq!(t.remaining(), None);
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.check(), Err(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_expires_on_the_clock() {
        let clock = SimClock::handle();
        let t = CancelToken::with_timeout(clock.clone(), Duration::from_millis(100));
        assert_eq!(t.check(), Ok(()));
        assert_eq!(t.remaining(), Some(Duration::from_millis(100)));
        clock.advance(Duration::from_millis(99));
        assert_eq!(t.check(), Ok(()));
        clock.advance(Duration::from_millis(1));
        assert_eq!(t.check(), Err(CancelReason::DeadlineExceeded));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let clock = SimClock::handle();
        let t = CancelToken::with_timeout(clock.clone(), Duration::from_secs(10));
        t.cancel();
        clock.advance(Duration::from_secs(20));
        assert_eq!(t.check(), Err(CancelReason::Cancelled));
    }

    #[test]
    fn current_token_scopes_and_restores() {
        assert!(current().is_none());
        assert_eq!(check_current(), Ok(()));
        let outer = CancelToken::unbounded();
        with_current(&outer, || {
            assert!(current().is_some());
            let inner = CancelToken::unbounded();
            inner.cancel();
            with_current(&inner, || {
                assert_eq!(check_current(), Err(CancelReason::Cancelled));
            });
            // Restored to the (uncancelled) outer token.
            assert_eq!(check_current(), Ok(()));
        });
        assert!(current().is_none());
    }

    #[test]
    fn current_token_restored_on_unwind() {
        let t = CancelToken::unbounded();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_current(&t, || panic!("boom"));
        }));
        assert!(caught.is_err());
        assert!(current().is_none(), "unwind must not leak the token");
    }

    #[test]
    fn workers_do_not_inherit_current_without_reinstall() {
        let t = CancelToken::unbounded();
        t.cancel();
        with_current(&t, || {
            let seen: Vec<bool> = crate::parallel_items(4, 4, |_| current().is_some());
            // Inline execution (reentrant/1-worker) may see it; dedicated
            // pool threads must not. Either way, re-installing explicitly
            // is what fan-out code does:
            let reinstalled: Vec<Result<(), CancelReason>> = crate::parallel_items(4, 4, |_| {
                with_current(&t, check_current)
            });
            assert!(reinstalled.iter().all(|r| *r == Err(CancelReason::Cancelled)));
            drop(seen);
        });
    }
}
