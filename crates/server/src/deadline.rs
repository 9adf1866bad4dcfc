//! Per-request deadlines and cooperative cancellation.
//!
//! A [`CancelToken`] is created when a request is accepted (its
//! deadline computed from the request's `timeout_ms`, capped by
//! [`crate::Limits`]) and travels with the request to the worker that
//! runs it. Long-running work (deadlock exploration in
//! `secflow-analyze`, the interleaving explorer in `secflow-runtime`)
//! polls the token every few hundred states and unwinds cooperatively;
//! the service then answers with a structured `timeout` error instead
//! of running unbounded.
//!
//! Deadline arithmetic is saturating everywhere: a `timeout_ms` of
//! `u64::MAX` (or anything that would push an [`Instant`] past its
//! platform range) degrades to "no deadline", never to a panic or a
//! wrapped time in the past.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, clonable cancellation token with an optional deadline.
///
/// Cancellation is level-triggered and sticky: once [`expired`]
/// (explicitly via [`cancel`], or implicitly by passing the deadline)
/// the token stays expired forever.
///
/// [`expired`]: CancelToken::expired
/// [`cancel`]: CancelToken::cancel
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never expires on its own (explicit [`cancel`] only).
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn unbounded() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token expiring `timeout_ms` milliseconds from now. `0` and
    /// values too large to represent both mean "no deadline".
    pub fn after_ms(timeout_ms: u64) -> CancelToken {
        match deadline_after_ms(Instant::now(), timeout_ms) {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::unbounded(),
        }
    }

    /// Explicitly cancels the token (idempotent).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once cancelled or past the deadline; sticky thereafter.
    pub fn expired(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so `expired` stays cheap and monotone.
                self.inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Time left before the deadline (`None` without one; zero once
    /// past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// `now + timeout_ms`, saturating: `None` means "no deadline" (either
/// `timeout_ms == 0`, i.e. disabled, or the sum is unrepresentable).
pub fn deadline_after_ms(now: Instant, timeout_ms: u64) -> Option<Instant> {
    if timeout_ms == 0 {
        return None;
    }
    now.checked_add(Duration::from_millis(timeout_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_token_never_expires() {
        let t = CancelToken::unbounded();
        assert!(!t.expired());
        assert_eq!(t.remaining(), None);
        t.cancel();
        assert!(t.expired());
    }

    #[test]
    fn deadline_expiry_is_sticky_and_shared() {
        let t = CancelToken::after_ms(1);
        let clone = t.clone();
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.expired());
        assert!(clone.expired(), "clones share the latch");
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn zero_and_huge_timeouts_mean_no_deadline() {
        assert!(!CancelToken::after_ms(0).expired());
        assert_eq!(CancelToken::after_ms(0).remaining(), None);
        // Saturates instead of panicking near the Instant range end.
        let t = CancelToken::after_ms(u64::MAX);
        assert!(!t.expired());
    }
}
