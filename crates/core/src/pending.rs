//! Typed in-flight operations.
//!
//! Every [`Session`](crate::Session) operation runs one path: it issues
//! its command into the simulated world and gets back a [`Pending<T>`] — a
//! typed handle to the eventual result — and its blocking form is just
//! `_async(..)?.wait()`. The command waits on the runtime's op desk until
//! the world delivers its driver event to the node, and the node leaves
//! the typed outcome on the same desk; nothing crosses that hop encoded.
//!
//! A `Pending` carries no closure, only plain data: what the completed
//! operation teaches the session (nothing, where a component was found, or
//! a bind's resolved plan) and a plain `fn` that turns the outcome into
//! `T`. [`Pending::wait`] records the lesson in the session's caches —
//! once, for every operation — and then decodes. Deferring both to `wait`
//! lets a driver issue a whole batch of operations (across several
//! sessions), pump the world with [`Runtime::step`](crate::Runtime::step)
//! or [`Runtime::run_until_idle`](crate::Runtime::run_until_idle), and only
//! then collect results. This is what makes the paper's §4.4 concurrent
//! locking and Figure 8 contention scenarios first-class instead of bolted
//! on.

use std::cell::RefCell;
use std::rc::Rc;

use mage_sim::{NodeId, OpId};

use crate::error::MageError;
use crate::proto::Outcome;
use crate::registry::{CompKey, Located};
use crate::runtime::Inner;
use crate::session::{BindContext, BindReceipt, SessionState};

/// What [`Pending::wait`] records from a completed [`Outcome`], and the
/// plain function that then produces the operation's typed result.
pub(crate) enum Completion<T> {
    /// Caches where (and as which incarnation) the operation found its
    /// component, if it located one, then decodes the outcome.
    Outcome {
        located: Option<CompKey>,
        decode: fn(Outcome) -> Result<T, MageError>,
    },
    /// Assembles the bind receipt (caching the location and any factory
    /// home), then decodes the receipt.
    Bind {
        ctx: BindContext,
        decode: fn(BindReceipt) -> Result<T, MageError>,
    },
}

/// A typed, in-flight driver operation.
///
/// Obtained from the `_async` methods on [`Session`](crate::Session).
/// Dropping a `Pending` abandons the result: the operation itself still
/// runs to completion inside the world, and its outcome is discarded
/// when it arrives.
#[must_use = "a Pending does nothing until waited on"]
pub struct Pending<T> {
    op: OpId,
    inner: Rc<RefCell<Inner>>,
    state: Rc<RefCell<SessionState>>,
    /// `Some` until [`wait`](Pending::wait) consumes it (an `Option` so
    /// the `Drop` impl can coexist with the by-value `wait`).
    completion: Option<Completion<T>>,
}

impl<T> Pending<T> {
    pub(crate) fn new(
        op: OpId,
        inner: Rc<RefCell<Inner>>,
        state: Rc<RefCell<SessionState>>,
        completion: Completion<T>,
    ) -> Self {
        Pending {
            op,
            inner,
            state,
            completion: Some(completion),
        }
    }

    /// The underlying simulator operation id.
    pub fn op_id(&self) -> OpId {
        self.op
    }

    /// Whether the operation has completed, without running the world any
    /// further.
    ///
    /// `is_done` and [`wait`](Pending::wait) agree: once `is_done` returns
    /// `true`, `wait` returns without advancing virtual time.
    pub fn is_done(&self) -> bool {
        self.inner.borrow().world.op_result(self.op).is_some()
    }

    /// Runs the world until the operation completes, records what it
    /// located in the session's caches, and collects its typed result.
    ///
    /// # Errors
    ///
    /// Propagates the operation's failure, a simulation stall, or a
    /// failure to unmarshal an invocation result.
    pub fn wait(mut self) -> Result<T, MageError> {
        let completion = self
            .completion
            .take()
            .expect("wait consumes the handle once");
        let outcome = self.inner.borrow_mut().wait(self.op)?;
        match completion {
            Completion::Outcome { located, decode } => {
                if let Some(key) = located {
                    let at = Located::new(NodeId::from_raw(outcome.location), outcome.incarnation);
                    self.state.borrow_mut().cached_loc.insert(key, at);
                }
                decode(outcome)
            }
            Completion::Bind { ctx, decode } => {
                let receipt = {
                    let mut inner = self.inner.borrow_mut();
                    ctx.receipt(outcome, &mut inner.dir, &mut self.state.borrow_mut())
                };
                decode(receipt)
            }
        }
    }
}

impl<T> Drop for Pending<T> {
    fn drop(&mut self) {
        // An un-waited handle abandons its result: neither the world nor
        // the desk retains the completion (the operation itself still
        // runs).
        if self.completion.is_some() {
            let inner = &mut *self.inner.borrow_mut();
            inner.world.forget_op(self.op);
            inner.desk.borrow_mut().abandon(self.op, &inner.world);
        }
    }
}

impl<T> std::fmt::Debug for Pending<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("op", &self.op)
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}
