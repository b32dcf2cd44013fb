//! The instrumentation trait and its stock implementations.

use crate::event::{SlotEvent, SlotOutcome, TrainEvent};
use crate::stats::{Counter, Histogram};

/// Receiver for telemetry emitted by instrumented code.
///
/// Every method has an empty default body so a sink only pays for what it
/// observes, and instrumented call sites monomorphised over [`NullSink`]
/// compile down to the uninstrumented loop.
pub trait EventSink {
    /// One slot of the competition loop completed.
    fn record_slot(&mut self, event: &SlotEvent) {
        let _ = event;
    }

    /// One DQN training step completed.
    fn record_train(&mut self, event: &TrainEvent) {
        let _ = event;
    }

    /// A named scalar observation outside the slot loop (e.g. final goodput,
    /// sweep-point summary values).
    fn record_scalar(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }
}

/// The zero-cost sink: observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {}

// Allow passing `&mut sink` where a sink is consumed by value-generic code.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn record_slot(&mut self, event: &SlotEvent) {
        (**self).record_slot(event);
    }
    fn record_train(&mut self, event: &TrainEvent) {
        (**self).record_train(event);
    }
    fn record_scalar(&mut self, name: &'static str, value: f64) {
        (**self).record_scalar(name, value);
    }
}

/// In-memory recorder: keeps every event, maintains outcome counters and a
/// reward histogram, and can export to JSON-lines / CSV (see
/// [`crate::export`]).
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    /// Every slot event, in order.
    pub slots: Vec<SlotEvent>,
    /// Every training event, in order.
    pub trains: Vec<TrainEvent>,
    /// Named scalars, in emission order.
    pub scalars: Vec<(&'static str, f64)>,
    /// Slots by outcome label plus `hop`/`power_control` action counters.
    pub counters: Vec<Counter>,
    /// Distribution of per-slot rewards.
    pub reward_hist: Histogram,
    /// Distribution of training losses (only steps where a gradient ran).
    pub loss_hist: Histogram,
}

impl MemorySink {
    /// An empty sink with reward/loss histograms sized for Eq. 5 rewards
    /// (small negative range) and TD losses.
    pub fn new() -> Self {
        MemorySink {
            reward_hist: Histogram::new("reward", -10.0, 2.0, 24),
            loss_hist: Histogram::new("loss", 0.0, 5.0, 20),
            ..MemorySink::default()
        }
    }

    fn bump(&mut self, name: &'static str) {
        if let Some(c) = self.counters.iter_mut().find(|c| c.name == name) {
            c.incr();
        } else {
            let mut c = Counter::new(name);
            c.incr();
            self.counters.push(c);
        }
    }

    /// Value of a counter, 0 if never bumped.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Mean reward over all recorded slots (NaN if none).
    pub fn mean_reward(&self) -> f64 {
        self.reward_hist.mean()
    }
}

impl EventSink for MemorySink {
    fn record_slot(&mut self, event: &SlotEvent) {
        self.bump(event.outcome.label());
        if event.hopped {
            self.bump("hop");
        }
        if event.power_control {
            self.bump("power_control");
        }
        self.reward_hist.record(event.reward);
        self.slots.push(*event);
    }

    fn record_train(&mut self, event: &TrainEvent) {
        if let Some(loss) = event.loss {
            self.loss_hist.record(loss);
        }
        self.trains.push(*event);
    }

    fn record_scalar(&mut self, name: &'static str, value: f64) {
        self.scalars.push((name, value));
    }
}

/// O(1)-memory aggregating sink for sharded campaign engines.
///
/// Unlike [`MemorySink`], nothing per-event is retained — only counters
/// and histograms — so one `ShardSink` per worker shard costs constant
/// memory no matter how many episodes the shard processes. Two
/// invariants make it fleet-safe:
///
/// * **Fixed counter layout.** `MemorySink` orders counters by first
///   bump, which varies with episode assignment; `ShardSink` uses fixed
///   fields so [`ShardSink::to_json`] is byte-stable across any shard
///   partition.
/// * **Mergeable.** [`ShardSink::merge`] is associative and commutative
///   (histogram sums ride on [`crate::ExactSum`]), so folding shard
///   locals in any order reproduces the sequential single-sink result
///   bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSink {
    /// Slot events observed.
    pub slots: u64,
    /// Training events observed.
    pub train_steps: u64,
    /// Outcome counts in declaration order
    /// (`delivered`, `survived_jam`, `jammed`, `hopped`).
    pub outcomes: [u64; 4],
    /// Slots in which the defender hopped.
    pub hops: u64,
    /// Slots in which the defender raised power.
    pub power_controls: u64,
    /// Distribution of per-slot rewards (same shape as [`MemorySink`]).
    pub reward_hist: Histogram,
    /// Distribution of training losses (same shape as [`MemorySink`]).
    pub loss_hist: Histogram,
}

impl Default for ShardSink {
    fn default() -> Self {
        ShardSink::new()
    }
}

impl ShardSink {
    /// An empty sink with the same histogram shapes as [`MemorySink`],
    /// so fleet and non-fleet telemetry stay directly comparable.
    pub fn new() -> Self {
        ShardSink {
            slots: 0,
            train_steps: 0,
            outcomes: [0; 4],
            hops: 0,
            power_controls: 0,
            reward_hist: Histogram::new("reward", -10.0, 2.0, 24),
            loss_hist: Histogram::new("loss", 0.0, 5.0, 20),
        }
    }

    fn outcome_index(outcome: SlotOutcome) -> usize {
        match outcome {
            SlotOutcome::Delivered => 0,
            SlotOutcome::SurvivedJam => 1,
            SlotOutcome::Jammed => 2,
            SlotOutcome::Hopped => 3,
        }
    }

    /// Count for one outcome.
    pub fn outcome_count(&self, outcome: SlotOutcome) -> u64 {
        self.outcomes[Self::outcome_index(outcome)]
    }

    /// Folds another shard's aggregates into this one (associative,
    /// commutative).
    pub fn merge(&mut self, other: &ShardSink) {
        self.slots += other.slots;
        self.train_steps += other.train_steps;
        for (mine, theirs) in self.outcomes.iter_mut().zip(&other.outcomes) {
            *mine += theirs;
        }
        self.hops += other.hops;
        self.power_controls += other.power_controls;
        self.reward_hist.merge(&other.reward_hist);
        self.loss_hist.merge(&other.loss_hist);
    }

    /// The aggregate as a JSON object with a fixed key order: slot and
    /// train-step counts, the outcome and action counters, and the reward
    /// and loss histograms.
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        let mut counters = JsonValue::object();
        counters
            .set("delivered", self.outcomes[0])
            .set("survived_jam", self.outcomes[1])
            .set("jammed", self.outcomes[2])
            .set("hopped", self.outcomes[3])
            .set("hop", self.hops)
            .set("power_control", self.power_controls);
        let mut obj = JsonValue::object();
        obj.set("slots", self.slots)
            .set("train_steps", self.train_steps)
            .set("counters", counters)
            .set("reward", crate::export::histogram_json(&self.reward_hist))
            .set("loss", crate::export::histogram_json(&self.loss_hist));
        obj
    }

    /// Serializes the full aggregate state (checkpoint payload fragment).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        for n in [self.slots, self.train_steps] {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        for n in self.outcomes {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        for n in [self.hops, self.power_controls] {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        self.reward_hist.encode_state(buf);
        self.loss_hist.encode_state(buf);
    }

    /// Decodes a sink written by [`ShardSink::encode`], advancing
    /// `cursor` past the consumed bytes. Returns `None` on malformed
    /// input.
    pub fn decode(cursor: &mut &[u8]) -> Option<ShardSink> {
        let take = crate::stats::take_u64;
        let mut sink = ShardSink::new();
        sink.slots = take(cursor)?;
        sink.train_steps = take(cursor)?;
        for slot in sink.outcomes.iter_mut() {
            *slot = take(cursor)?;
        }
        sink.hops = take(cursor)?;
        sink.power_controls = take(cursor)?;
        sink.reward_hist = Histogram::decode_state("reward", cursor)?;
        sink.loss_hist = Histogram::decode_state("loss", cursor)?;
        Some(sink)
    }
}

impl EventSink for ShardSink {
    fn record_slot(&mut self, event: &SlotEvent) {
        self.slots += 1;
        self.outcomes[Self::outcome_index(event.outcome)] += 1;
        if event.hopped {
            self.hops += 1;
        }
        if event.power_control {
            self.power_controls += 1;
        }
        self.reward_hist.record(event.reward);
    }

    fn record_train(&mut self, event: &TrainEvent) {
        self.train_steps += 1;
        if let Some(loss) = event.loss {
            self.loss_hist.record(loss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SlotOutcome;

    fn slot(i: u64, outcome: SlotOutcome, hopped: bool, reward: f64) -> SlotEvent {
        SlotEvent {
            slot: i,
            channel: 3,
            power_level: 0,
            hopped,
            power_control: false,
            outcome,
            jammer_on_channel: matches!(outcome, SlotOutcome::Jammed | SlotOutcome::SurvivedJam),
            reward,
        }
    }

    #[test]
    fn memory_sink_counts_outcomes_and_actions() {
        let mut sink = MemorySink::new();
        sink.record_slot(&slot(0, SlotOutcome::Delivered, false, 1.0));
        sink.record_slot(&slot(1, SlotOutcome::Jammed, false, -4.0));
        sink.record_slot(&slot(2, SlotOutcome::Hopped, true, -1.0));
        assert_eq!(sink.counter("delivered"), 1);
        assert_eq!(sink.counter("jammed"), 1);
        assert_eq!(sink.counter("hopped"), 1);
        assert_eq!(sink.counter("hop"), 1);
        assert_eq!(sink.counter("power_control"), 0);
        assert_eq!(sink.slots.len(), 3);
        assert!((sink.mean_reward() - (-4.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn memory_sink_records_train_losses() {
        let mut sink = MemorySink::new();
        sink.record_train(&TrainEvent {
            step: 1,
            loss: None,
            epsilon: 1.0,
            replay_len: 1,
            replay_capacity: 100,
        });
        sink.record_train(&TrainEvent {
            step: 2,
            loss: Some(0.5),
            epsilon: 0.99,
            replay_len: 2,
            replay_capacity: 100,
        });
        assert_eq!(sink.trains.len(), 2);
        assert_eq!(sink.loss_hist.count(), 1);
    }

    #[test]
    fn null_sink_is_a_sink() {
        fn run<S: EventSink>(sink: &mut S) {
            sink.record_scalar("x", 1.0);
        }
        run(&mut NullSink);
        let mut mem = MemorySink::new();
        run(&mut mem);
        assert_eq!(mem.scalars, vec![("x", 1.0)]);
    }

    #[test]
    fn shard_sink_aggregates_like_memory_sink() {
        let events = [
            slot(0, SlotOutcome::Delivered, false, 1.0),
            slot(1, SlotOutcome::Jammed, false, -4.0),
            slot(2, SlotOutcome::Hopped, true, -1.0),
            slot(3, SlotOutcome::SurvivedJam, false, 0.5),
        ];
        let mut shard = ShardSink::new();
        let mut mem = MemorySink::new();
        for e in &events {
            shard.record_slot(e);
            mem.record_slot(e);
        }
        assert_eq!(shard.slots, 4);
        for outcome in [
            SlotOutcome::Delivered,
            SlotOutcome::SurvivedJam,
            SlotOutcome::Jammed,
            SlotOutcome::Hopped,
        ] {
            assert_eq!(shard.outcome_count(outcome), mem.counter(outcome.label()));
        }
        assert_eq!(shard.hops, mem.counter("hop"));
        assert_eq!(shard.reward_hist, mem.reward_hist);
    }

    #[test]
    fn shard_sink_merge_matches_sequential_and_roundtrips() {
        let events: Vec<SlotEvent> = (0..40)
            .map(|i| {
                let outcome = match i % 4 {
                    0 => SlotOutcome::Delivered,
                    1 => SlotOutcome::SurvivedJam,
                    2 => SlotOutcome::Jammed,
                    _ => SlotOutcome::Hopped,
                };
                slot(i, outcome, i % 3 == 0, -(i as f64) * 0.17)
            })
            .collect();
        let mut sequential = ShardSink::new();
        let mut a = ShardSink::new();
        let mut b = ShardSink::new();
        for (i, e) in events.iter().enumerate() {
            sequential.record_slot(e);
            if i % 2 == 0 {
                a.record_slot(e);
            } else {
                b.record_slot(e);
            }
        }
        a.merge(&b);
        assert_eq!(a, sequential);
        assert_eq!(
            a.to_json().to_string_compact(),
            sequential.to_json().to_string_compact()
        );

        let mut buf = Vec::new();
        sequential.encode(&mut buf);
        let mut cursor = buf.as_slice();
        let back = ShardSink::decode(&mut cursor).expect("decode");
        assert!(cursor.is_empty(), "decode must consume the whole blob");
        assert_eq!(back, sequential);
    }

    #[test]
    fn shard_sink_decode_rejects_truncated_input() {
        let mut sink = ShardSink::new();
        sink.record_slot(&slot(0, SlotOutcome::Delivered, false, 1.0));
        let mut buf = Vec::new();
        sink.encode(&mut buf);
        buf.truncate(buf.len() - 1);
        let mut cursor = buf.as_slice();
        assert!(ShardSink::decode(&mut cursor).is_none());
    }
}
