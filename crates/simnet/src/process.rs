//! The process abstraction: sans-IO nodes driven by the simulator.
//!
//! A [`Process`] is a state machine owned by the simulator, invoked on
//! message delivery, timer expiry, startup and recovery. All effects
//! (sends, timers) are issued through the [`Ctx`] handle and applied by
//! the driver after the handler returns, which keeps handlers pure and
//! replayable.

use crate::ids::{SiteId, TimerId};
use crate::time::{Duration, Time};
use rand::rngs::SmallRng;
use std::fmt;

/// Message payloads must be cheaply clonable, debuggable, and provide a
/// short static label used for per-kind message statistics.
pub trait Label {
    /// A short static name for this message kind (e.g. `"VOTE-REQ"`).
    fn label(&self) -> &'static str {
        "msg"
    }
}

/// A node of the simulated distributed system.
pub trait Process {
    /// Message payload exchanged between processes.
    type Msg: Clone + fmt::Debug + Label;
    /// Timer payload delivered back to the process on expiry.
    type Timer: Clone + fmt::Debug;

    /// Invoked once at simulation start (virtual time zero).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// Invoked when a message from `from` is delivered to this process.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        from: SiteId,
        msg: Self::Msg,
    );

    /// Invoked when a timer set by this process fires.
    fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        id: TimerId,
        timer: Self::Timer,
    );

    /// Invoked when the site crashes. Implementations should discard
    /// volatile state here; durable state must survive.
    fn on_crash(&mut self, now: Time) {
        let _ = now;
    }

    /// Invoked when the site recovers after a crash.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// Invoked by an event-loop host once a round of deliveries and
    /// timers reaches local quiescence (see [`crate::NodeDriver::quiesce`]).
    /// A process batches work here that the host wants done once per
    /// loop turn rather than once per event. The simulator, the
    /// threaded transport and the model checker never call it.
    fn on_quiesce(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }
}

/// Buffered effect emitted by a handler, applied by the driver afterwards.
#[derive(Debug)]
pub(crate) enum Effect<M, T> {
    Send {
        to: SiteId,
        msg: M,
    },
    SetTimer {
        id: TimerId,
        delay: Duration,
        timer: T,
    },
    CancelTimer(TimerId),
    Annotate(String),
}

/// Handler context: the only way a process can affect the world.
pub struct Ctx<'a, M, T> {
    pub(crate) self_id: SiteId,
    pub(crate) now: Time,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) effects: &'a mut Vec<Effect<M, T>>,
    pub(crate) next_timer_id: &'a mut u64,
}

impl<'a, M, T> Ctx<'a, M, T> {
    /// The id of the process being invoked.
    pub fn id(&self) -> SiteId {
        self.self_id
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic per-run random source (shared across all processes).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to `to`. Sending to self is delivered like any other
    /// message (subject to delay, not loss).
    pub fn send(&mut self, to: SiteId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends a clone of `msg` to every site in `targets`.
    pub fn broadcast(&mut self, targets: impl IntoIterator<Item = SiteId>, msg: M)
    where
        M: Clone,
    {
        for to in targets {
            self.effects.push(Effect::Send {
                to,
                msg: msg.clone(),
            });
        }
    }

    /// Schedules `timer` to fire after `delay`. Returns an id usable with
    /// [`Ctx::cancel_timer`]. Timers die with the site: a crash invalidates
    /// all timers set before it.
    pub fn set_timer(&mut self, delay: Duration, timer: T) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer { id, delay, timer });
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Records a free-form annotation in the simulation trace (debugging
    /// and experiment narration).
    pub fn annotate(&mut self, text: impl Into<String>) {
        self.effects.push(Effect::Annotate(text.into()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct M;
    impl Label for M {
        fn label(&self) -> &'static str {
            "M"
        }
    }

    #[test]
    fn ctx_buffers_effects_in_order() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut effects: Vec<Effect<M, u8>> = Vec::new();
        let mut next = 0;
        let mut ctx = Ctx {
            self_id: SiteId(1),
            now: Time(5),
            rng: &mut rng,
            effects: &mut effects,
            next_timer_id: &mut next,
        };
        ctx.send(SiteId(2), M);
        let t = ctx.set_timer(Duration(10), 42u8);
        ctx.cancel_timer(t);
        assert_eq!(ctx.now(), Time(5));
        assert_eq!(ctx.id(), SiteId(1));
        assert_eq!(effects.len(), 3);
        assert!(matches!(effects[0], Effect::Send { to: SiteId(2), .. }));
        assert!(matches!(
            effects[1],
            Effect::SetTimer {
                id: TimerId(0),
                delay: Duration(10),
                timer: 42
            }
        ));
        assert!(matches!(effects[2], Effect::CancelTimer(TimerId(0))));
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut effects: Vec<Effect<M, u8>> = Vec::new();
        let mut next = 7;
        let mut ctx = Ctx {
            self_id: SiteId(0),
            now: Time(0),
            rng: &mut rng,
            effects: &mut effects,
            next_timer_id: &mut next,
        };
        let a = ctx.set_timer(Duration(1), 0);
        let b = ctx.set_timer(Duration(1), 0);
        assert_ne!(a, b);
        assert_eq!(b, TimerId(8));
    }
}
