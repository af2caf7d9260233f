//! A thread-based pub/sub bus with the same topic contract as the
//! discrete-event runtime, for demonstrations with real OS threads —
//! the shape a ROS deployment would take: independent nodes publishing
//! and subscribing without knowing about each other, while the accelerator
//! driver serialises access behind the bus.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use inca_obs::Metrics;
use parking_lot::Mutex;

type Subscribers<M> = HashMap<String, Vec<Sender<(String, M)>>>;

#[derive(Debug)]
struct BusState<M> {
    subscribers: Subscribers<M>,
    /// Per-subscriber channel capacity; `None` means unbounded.
    capacity: Option<usize>,
    /// Publishes so far, to any topic.
    publishes: u64,
    messages_sent: u64,
    messages_dropped: u64,
    dropped_subscribers: u64,
}

impl<M> Default for BusState<M> {
    fn default() -> Self {
        Self {
            subscribers: HashMap::new(),
            capacity: None,
            publishes: 0,
            messages_sent: 0,
            messages_dropped: 0,
            dropped_subscribers: 0,
        }
    }
}

/// A shared topic bus. Cloning is cheap (it's an `Arc` inside).
///
/// ```
/// use inca_runtime::live::LiveBus;
///
/// let bus: LiveBus<String> = LiveBus::new();
/// let rx = bus.subscribe("chatter");
/// bus.publish("chatter", "hello".to_owned());
/// let (topic, msg) = rx.recv()?;
/// assert_eq!((topic.as_str(), msg.as_str()), ("chatter", "hello"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LiveBus<M> {
    state: Arc<Mutex<BusState<M>>>,
}

impl<M> Default for LiveBus<M> {
    fn default() -> Self {
        Self { state: Arc::new(Mutex::new(BusState::default())) }
    }
}

impl<M: Clone + Send + 'static> LiveBus<M> {
    /// Creates an empty bus with unbounded subscriber channels.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bus whose subscriber channels hold at most
    /// `capacity` undelivered messages each. A publish to a full
    /// subscriber **drops the message for that subscriber** (counted in
    /// `bus.messages.dropped`) instead of buffering without bound — a
    /// slow consumer can no longer OOM the process.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let bus = Self::default();
        bus.state.lock().capacity = Some(capacity.max(1));
        bus
    }

    /// The per-subscriber channel capacity (`None` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.state.lock().capacity
    }

    /// Subscribes to `topic`, returning the receiving end of a channel of
    /// `(topic, message)` pairs — bounded to the bus capacity when one was
    /// configured ([`LiveBus::with_capacity`]), unbounded otherwise.
    pub fn subscribe(&self, topic: impl Into<String>) -> Receiver<(String, M)> {
        let mut st = self.state.lock();
        let (tx, rx) = match st.capacity {
            Some(cap) => bounded(cap),
            None => unbounded(),
        };
        st.subscribers.entry(topic.into()).or_default().push(tx);
        rx
    }

    /// Publishes `msg` to all current subscribers of `topic`. Returns the
    /// number of subscribers reached. Disconnected subscribers are
    /// pruned; on a bounded bus, subscribers whose channel is full simply
    /// miss this message (counted, not buffered).
    pub fn publish(&self, topic: &str, msg: M) -> usize {
        let mut st = self.state.lock();
        st.publishes += 1;
        let Some(subs) = st.subscribers.get_mut(topic) else { return 0 };
        let before = subs.len();
        let mut reached = 0usize;
        let mut dropped = 0u64;
        subs.retain(|tx| match tx.try_send((topic.to_owned(), msg.clone())) {
            Ok(()) => {
                reached += 1;
                true
            }
            Err(TrySendError::Full(_)) => {
                dropped += 1;
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        st.dropped_subscribers += (before - subs.len()) as u64;
        st.messages_dropped += dropped;
        st.messages_sent += reached as u64;
        reached
    }

    /// Number of subscribers currently registered on `topic`.
    #[must_use]
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.state.lock().subscribers.get(topic).map_or(0, Vec::len)
    }

    /// A deterministic metrics snapshot, keys prefixed `bus.`.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let st = self.state.lock();
        let mut m = Metrics::new();
        m.inc("bus.publishes", st.publishes);
        m.inc("bus.messages.sent", st.messages_sent);
        m.inc("bus.messages.dropped", st.messages_dropped);
        m.inc("bus.subscribers.dropped", st.dropped_subscribers);
        m.inc("bus.topics", st.subscribers.len() as u64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fan_out_to_multiple_threads() {
        let bus: LiveBus<u32> = LiveBus::new();
        let rx1 = bus.subscribe("t");
        let rx2 = bus.subscribe("t");
        let h1 = thread::spawn(move || rx1.iter().take(3).map(|(_, v)| v).sum::<u32>());
        let h2 = thread::spawn(move || rx2.iter().take(3).map(|(_, v)| v).sum::<u32>());
        for v in [1, 2, 3] {
            assert_eq!(bus.publish("t", v), 2);
        }
        assert_eq!(h1.join().unwrap(), 6);
        assert_eq!(h2.join().unwrap(), 6);
        assert_eq!(bus.metrics().counter("bus.messages.sent"), 6);
    }

    #[test]
    fn publish_without_subscribers_is_zero() {
        let bus: LiveBus<u32> = LiveBus::new();
        assert_eq!(bus.publish("nobody", 9), 0);
        assert_eq!(bus.subscriber_count("nobody"), 0);
        assert_eq!(bus.metrics().counter("bus.publishes"), 1);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus: LiveBus<u32> = LiveBus::new();
        let rx = bus.subscribe("t");
        drop(rx);
        assert_eq!(bus.publish("t", 1), 0);
        assert_eq!(bus.metrics().counter("bus.subscribers.dropped"), 1);
    }

    #[test]
    fn publish_to_topic_whose_only_receiver_dropped() {
        // The edge case: the topic exists (a subscriber registered), but
        // its only receiver is gone by publish time. The publish must not
        // panic, must report zero subscribers reached, and the *next*
        // subscriber_count query must reflect the disconnect (the channel
        // stub has no is_disconnected, so pruning happens at publish).
        let bus: LiveBus<u32> = LiveBus::new();
        let rx = bus.subscribe("lonely");
        assert_eq!(bus.subscriber_count("lonely"), 1);
        drop(rx);
        // Before any publish the stale sender is still registered.
        assert_eq!(bus.subscriber_count("lonely"), 1);
        assert_eq!(bus.publish("lonely", 7), 0, "no live receiver was reached");
        assert_eq!(bus.subscriber_count("lonely"), 0, "publish pruned the dead sender");
        assert_eq!(bus.metrics().counter("bus.subscribers.dropped"), 1);
        assert_eq!(bus.metrics().counter("bus.messages.sent"), 0);
        // Publishing again on the now-empty topic stays quiet and safe.
        assert_eq!(bus.publish("lonely", 8), 0);
        assert_eq!(bus.metrics().counter("bus.subscribers.dropped"), 1, "no double count");
    }

    #[test]
    fn bounded_bus_drops_instead_of_buffering() {
        let bus: LiveBus<u32> = LiveBus::with_capacity(2);
        assert_eq!(bus.capacity(), Some(2));
        let rx_slow = bus.subscribe("t");
        let rx_fast = bus.subscribe("t");
        // Nobody drains rx_slow; after 2 buffered messages its channel is
        // full and further publishes drop for it but still reach rx_fast.
        let mut fast_seen = 0;
        for v in 0..5u32 {
            let reached = bus.publish("t", v);
            fast_seen += usize::from(rx_fast.try_recv().is_ok());
            assert!(reached >= 1, "the draining subscriber is always reached");
        }
        assert_eq!(fast_seen, 5);
        let m = bus.metrics();
        assert_eq!(m.counter("bus.messages.dropped"), 3, "5 publishes, 2 buffered slots");
        assert_eq!(m.counter("bus.messages.sent"), 5 + 2);
        // The slow subscriber still holds its first two messages and was
        // never disconnected.
        assert_eq!(rx_slow.try_iter().count(), 2);
        assert_eq!(bus.subscriber_count("t"), 2);
    }

    #[test]
    fn bounded_bus_full_subscriber_is_not_pruned() {
        let bus: LiveBus<u32> = LiveBus::with_capacity(1);
        let rx = bus.subscribe("t");
        assert_eq!(bus.publish("t", 1), 1);
        assert_eq!(bus.publish("t", 2), 0, "full channel: message dropped, not delivered");
        assert_eq!(bus.metrics().counter("bus.messages.dropped"), 1);
        assert_eq!(bus.metrics().counter("bus.subscribers.dropped"), 0);
        // Draining reopens delivery.
        assert_eq!(rx.try_recv().unwrap().1, 1);
        assert_eq!(bus.publish("t", 3), 1);
        assert_eq!(rx.try_recv().unwrap().1, 3);
    }

    #[test]
    fn sequence_stamps_stay_monotonic_across_dropped_subscribers() {
        let bus: LiveBus<u32> = LiveBus::new();
        let rx_a = bus.subscribe("t");
        let mut reached = vec![bus.publish("t", 0)]; // one live subscriber
        drop(rx_a);
        reached.push(bus.publish("t", 1)); // prunes the dead one
        reached.push(bus.publish("missing", 2)); // topic never subscribed
        let _rx_b = bus.subscribe("t");
        reached.push(bus.publish("t", 3)); // fresh subscriber
        assert_eq!(reached, vec![1, 0, 0, 1]);
        assert_eq!(
            bus.metrics().counter("bus.publishes"),
            4,
            "every publish is counted, dead receivers or not"
        );
    }
}
