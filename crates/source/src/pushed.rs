//! The push-paced source: a producer thread feeding a bounded channel.
//!
//! Every source whose tuples come to exist on another thread — an
//! in-process pacer ([`crate::ThreadedWrapper`]) or a socket reader
//! ([`crate::FailoverSource`]) — is a [`PushSource`] around a
//! [`Producer`]. The source owns what they share: the bounded
//! [`std::sync::mpsc::sync_channel`] that is the transport half of the
//! paper's window protocol (§2.1: a producer that outruns the consumer
//! blocks in `send` exactly as a suspended wrapper stops shipping), the
//! delivered/suspended bookkeeping, and the "data before notice" rule —
//! each tuple is in the channel before its [`Notice::Arrival`] is posted,
//! so by the time the communication manager calls [`TupleSource::emit`]
//! the `recv` never blocks.

use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};

use dqs_relop::{RelId, Tuple};
use dqs_sim::SimDuration;

use crate::source::{Notice, SourceError, TupleSource};

/// What makes a [`PushSource`]'s tuples.
pub trait Producer: std::fmt::Debug {
    /// Begin producing into `feed` on a detached thread. The thread exits
    /// on its own when every tuple is sent or the run is abandoned (the
    /// feed's sends start failing). Called once.
    fn start(&mut self, feed: Feed);

    /// The engine took a tuple (`last`: the source's final one). Remote
    /// producers return window credits here.
    fn consumed(&mut self, _last: bool) {}
}

/// A producer's handle on its source: tuples in, notices out.
#[derive(Debug)]
pub struct Feed {
    rel: RelId,
    data: SyncSender<Tuple>,
    notify: Sender<Notice>,
}

impl Feed {
    /// The relation being produced.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Deliver one tuple, blocking while the window is full. False when
    /// the run was abandoned.
    pub fn push(&self, key: u64) -> bool {
        // Data before notice: emit() must never block.
        self.data.send(Tuple::new(key, self.rel)).is_ok()
            && self.notify.send(Notice::Arrival(self.rel)).is_ok()
    }

    /// Post an out-of-band notice. False when the run was abandoned.
    pub fn notice(&self, notice: Notice) -> bool {
        self.notify.send(notice).is_ok()
    }

    /// Post the terminal fault: the source will deliver nothing more.
    pub fn fault(&self, error: SourceError) {
        self.notice(Notice::Fault {
            rel: self.rel,
            error,
        });
    }
}

/// A [`TupleSource`] whose tuples are pushed by a [`Producer`] thread.
#[derive(Debug)]
pub struct PushSource<P> {
    rel: RelId,
    total: u64,
    produced: u64,
    suspended: bool,
    data: Receiver<Tuple>,
    /// Handed to the producer at [`TupleSource::start`].
    feed: Option<Feed>,
    pub(crate) producer: P,
}

impl<P> PushSource<P> {
    /// A source for tuples `[first, total)` of `rel` with at most `window`
    /// in flight, announcing each on `notify`. Nothing runs until
    /// [`TupleSource::start`].
    pub(crate) fn around(
        rel: RelId,
        first: u64,
        total: u64,
        window: usize,
        notify: Sender<Notice>,
        producer: P,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        let (data_tx, data) = sync_channel(window);
        PushSource {
            rel,
            total,
            produced: first,
            suspended: false,
            data,
            feed: Some(Feed {
                rel,
                data: data_tx,
                notify,
            }),
            producer,
        }
    }
}

impl<P: Producer> TupleSource for PushSource<P> {
    fn rel(&self) -> RelId {
        self.rel
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn produced(&self) -> u64 {
        self.produced
    }

    fn is_suspended(&self) -> bool {
        self.suspended
    }

    fn suspend(&mut self) {
        self.suspended = true;
    }

    fn resume(&mut self) {
        self.suspended = false;
    }

    fn start(&mut self) {
        let feed = self.feed.take().expect("started twice");
        self.producer.start(feed);
    }

    /// Push-paced: arrivals are announced on the notify channel, so there
    /// is never a gap to pre-schedule.
    fn next_gap(&mut self) -> Option<SimDuration> {
        None
    }

    fn emit(&mut self) -> Tuple {
        assert!(self.produced < self.total, "emit from exhausted wrapper");
        // Data is sent before its notification, so this never blocks when
        // called in response to a notify.
        let t = self
            .data
            .recv()
            .expect("producer thread died before delivering all tuples");
        self.produced += 1;
        self.producer.consumed(self.produced == self.total);
        t
    }
}
