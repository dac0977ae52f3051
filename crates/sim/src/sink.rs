//! Streaming consumers for the contention engine's event stream.
//!
//! The simulators historically materialized every [`AttemptRecord`] and
//! [`TransactionRecord`] into [`SimTrace`] `Vec`s and reduced them
//! afterwards. For large replication sweeps that allocation is pure
//! overhead: every figure only needs a handful of online statistics. A
//! [`TraceSink`] receives each record the moment its outcome is final, so
//! a reducer can fold it immediately:
//!
//! * [`TraceCollector`] — the original behaviour: collect everything into
//!   a [`SimTrace`] (kept for trace-level analyses and tests);
//! * [`StatsSink`] — the online reducer: feeds a
//!   [`ContentionAccumulator`] plus the transaction-level tallies without
//!   allocating. Its output is bit-identical to collecting a trace and
//!   reducing it afterwards, because records arrive in exactly the order
//!   they would have been pushed.

use std::fs;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use wsn_units::Probability;

use crate::cfp::{DownlinkOutcome, DownlinkRecord, GtsRecord};
use crate::contention::{AttemptOutcome, AttemptRecord, SimTrace, TransactionRecord, SLOT_US};
use crate::faults::{FaultKind, FaultRecord};
use crate::rng::Xoshiro256StarStar;
use crate::stats::{Accumulator, ContentionAccumulator, ContentionStats, Counter};

/// Receives contention records as the engine finalizes them.
///
/// Records are delivered in deterministic engine order (the order the
/// trace `Vec`s would have been filled), so any fold over a sink is as
/// reproducible as the trace itself.
pub trait TraceSink {
    /// One contention procedure finished (transmission started, collided,
    /// was corrupted, or access failed).
    fn on_attempt(&mut self, record: &AttemptRecord);
    /// One application-level transaction concluded.
    fn on_transaction(&mut self, record: &TransactionRecord);
    /// An arrival was skipped because the node was still busy.
    fn on_overrun(&mut self) {}
    /// One GTS (contention-free) transmission concluded.
    fn on_gts(&mut self, _record: &GtsRecord) {}
    /// One downlink poll concluded.
    fn on_downlink(&mut self, _record: &DownlinkRecord) {}
    /// One fault event (death, missed beacon, join attempt, …) occurred.
    fn on_fault(&mut self, _record: &FaultRecord) {}
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        (**self).on_attempt(record);
    }
    fn on_transaction(&mut self, record: &TransactionRecord) {
        (**self).on_transaction(record);
    }
    fn on_overrun(&mut self) {
        (**self).on_overrun();
    }
    fn on_gts(&mut self, record: &GtsRecord) {
        (**self).on_gts(record);
    }
    fn on_downlink(&mut self, record: &DownlinkRecord) {
        (**self).on_downlink(record);
    }
    fn on_fault(&mut self, record: &FaultRecord) {
        (**self).on_fault(record);
    }
}

/// Fans records out to two sinks (e.g. an online reducer plus a trace
/// collector).
#[derive(Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        self.0.on_attempt(record);
        self.1.on_attempt(record);
    }
    fn on_transaction(&mut self, record: &TransactionRecord) {
        self.0.on_transaction(record);
        self.1.on_transaction(record);
    }
    fn on_overrun(&mut self) {
        self.0.on_overrun();
        self.1.on_overrun();
    }
    fn on_gts(&mut self, record: &GtsRecord) {
        self.0.on_gts(record);
        self.1.on_gts(record);
    }
    fn on_downlink(&mut self, record: &DownlinkRecord) {
        self.0.on_downlink(record);
        self.1.on_downlink(record);
    }
    fn on_fault(&mut self, record: &FaultRecord) {
        self.0.on_fault(record);
        self.1.on_fault(record);
    }
}

/// Collects every record into a [`SimTrace`] — the pre-streaming
/// behaviour, still used by trace-level analyses.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    trace: SimTrace,
}

impl TraceCollector {
    /// Creates a collector; `superframe_slots` is carried into the trace.
    pub fn new(superframe_slots: u64) -> Self {
        TraceCollector {
            trace: SimTrace {
                attempts: Vec::new(),
                transactions: Vec::new(),
                gts: Vec::new(),
                downlinks: Vec::new(),
                faults: Vec::new(),
                overruns: 0,
                superframe_slots,
            },
        }
    }

    /// Consumes the collector, yielding the trace.
    pub fn into_trace(self) -> SimTrace {
        self.trace
    }
}

impl TraceSink for TraceCollector {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        self.trace.attempts.push(*record);
    }
    fn on_transaction(&mut self, record: &TransactionRecord) {
        self.trace.transactions.push(*record);
    }
    fn on_overrun(&mut self) {
        self.trace.overruns += 1;
    }
    fn on_gts(&mut self, record: &GtsRecord) {
        self.trace.gts.push(*record);
    }
    fn on_downlink(&mut self, record: &DownlinkRecord) {
        self.trace.downlinks.push(*record);
    }
    fn on_fault(&mut self, record: &FaultRecord) {
        self.trace.faults.push(*record);
    }
}

/// Online reducer: folds the event stream straight into the statistics the
/// figures consume, allocating nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSink {
    /// Per-procedure contention statistics (Figure 6 material).
    pub contention: ContentionAccumulator,
    /// Failed-transaction counter (`Pr_fail` numerator/denominator).
    pub failures: Counter,
    /// Attempts per transaction.
    pub attempts: Accumulator,
    /// Delivery delay in superframes, over delivered transactions.
    pub delivery_superframes: Accumulator,
    /// Arrivals skipped because the node was still busy.
    pub overruns: u64,
    /// Failed GTS transmissions over GTS transmissions (CFP traffic; GTS
    /// deliveries also fold into [`failures`](Self::failures),
    /// [`attempts`](Self::attempts) and
    /// [`delivery_superframes`](Self::delivery_superframes) so CAP-only
    /// and GTS scenarios compare on the same transaction statistics).
    pub gts_failures: Counter,
    /// Undelivered downlink polls over non-deferred polls.
    pub downlink_failures: Counter,
    /// Downlink polls deferred because the node was busy.
    pub downlink_deferred: u64,
    /// Node deaths injected by the fault plan.
    pub deaths: u64,
    /// Missed beacons spent listening (orphan-scan windows of alive
    /// nodes during coordinator outages).
    pub orphan_scans: u64,
    /// Re-association exchanges (hit = the coordinator's response got
    /// through).
    pub join_attempts: Counter,
    /// Death → successful re-association latency in superframes.
    pub reassoc_superframes: Accumulator,
    /// Nodes that exhausted their join-retry budget and went dormant.
    pub dormant_nodes: u64,
}

impl StatsSink {
    /// Creates an empty reducer.
    pub fn new() -> Self {
        StatsSink::default()
    }

    /// Merges another reducer (exact; fixed merge order stays
    /// bit-deterministic).
    pub fn merge(&mut self, other: &StatsSink) {
        self.contention.merge(&other.contention);
        self.failures.merge(&other.failures);
        self.attempts.merge(&other.attempts);
        self.delivery_superframes.merge(&other.delivery_superframes);
        self.overruns += other.overruns;
        self.gts_failures.merge(&other.gts_failures);
        self.downlink_failures.merge(&other.downlink_failures);
        self.downlink_deferred += other.downlink_deferred;
        self.deaths += other.deaths;
        self.orphan_scans += other.orphan_scans;
        self.join_attempts.merge(&other.join_attempts);
        self.reassoc_superframes.merge(&other.reassoc_superframes);
        self.dormant_nodes += other.dormant_nodes;
    }

    /// The contention statistics (identical to
    /// [`SimTrace::contention_stats`] on the equivalent trace).
    pub fn contention_stats(&self) -> ContentionStats {
        self.contention.finish()
    }

    /// Fraction of transactions that failed.
    pub fn failure_ratio(&self) -> Probability {
        self.failures.ratio()
    }

    /// Mean attempts per transaction.
    pub fn mean_attempts(&self) -> f64 {
        self.attempts.mean()
    }

    /// Mean delivery delay in superframes over delivered packets.
    pub fn mean_delivery_superframes(&self) -> f64 {
        self.delivery_superframes.mean()
    }
}

impl TraceSink for StatsSink {
    fn on_attempt(&mut self, record: &AttemptRecord) {
        self.contention
            .contention_us
            .push(record.contention_slots as f64 * SLOT_US as f64);
        self.contention.ccas.push(record.ccas as f64);
        self.contention
            .access_failures
            .observe(record.outcome == AttemptOutcome::AccessFailure);
        if record.outcome != AttemptOutcome::AccessFailure {
            self.contention
                .collisions
                .observe(record.outcome == AttemptOutcome::Collided);
        }
    }

    fn on_transaction(&mut self, record: &TransactionRecord) {
        self.failures.observe(!record.delivered);
        self.attempts.push(record.attempts as f64);
        if record.delivered {
            self.delivery_superframes
                .push(record.superframes_waited as f64 + 1.0);
        }
    }

    fn on_overrun(&mut self) {
        self.overruns += 1;
    }

    fn on_gts(&mut self, record: &GtsRecord) {
        self.gts_failures.observe(!record.delivered);
        // A GTS transmission is a one-attempt transaction: fold it into
        // the shared transaction statistics too.
        self.failures.observe(!record.delivered);
        self.attempts.push(1.0);
        if record.delivered {
            self.delivery_superframes
                .push(record.superframes_waited as f64 + 1.0);
        }
    }

    fn on_downlink(&mut self, record: &DownlinkRecord) {
        if record.outcome == DownlinkOutcome::Deferred {
            self.downlink_deferred += 1;
        } else {
            self.downlink_failures
                .observe(record.outcome != DownlinkOutcome::Delivered);
        }
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        match record.kind {
            FaultKind::Death => self.deaths += 1,
            FaultKind::MissedBeacon { listened } => {
                if listened {
                    self.orphan_scans += 1;
                }
            }
            FaultKind::JoinAttempt { success } => self.join_attempts.observe(success),
            FaultKind::Reassociated {
                latency_superframes,
            } => self.reassoc_superframes.push(latency_superframes as f64),
            FaultKind::Dormant => self.dormant_nodes += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Result sinks: where the batch farm's JSONL records go
// ---------------------------------------------------------------------------

/// Delivery counters a [`ResultSink`] accumulates over its lifetime.
///
/// All fields are zero for sinks that cannot fail ([`WriteSink`]); the
/// `batch_run` CLI folds them into `BENCH_batch.json` so a farm run leaves a
/// trail of how flaky its consumer was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Connection attempts that failed (before backoff + retry).
    pub connect_retries: u64,
    /// Successful connections after the first one.
    pub reconnects: u64,
    /// Lines diverted to the on-disk overflow queue while the peer was down.
    pub spilled_lines: u64,
    /// Overflow-queue lines later delivered to the peer.
    pub drained_lines: u64,
}

/// Consumes the batch farm's JSONL record stream, one line per call.
///
/// This lifts the raw `&mut dyn Write` the batch service used to take into a
/// trait that can retry, reconnect and spill: [`WriteSink`] is the plain
/// adapter for files and stdout, [`TcpSink`] streams to a socket with
/// bounded exponential backoff and an optional on-disk overflow queue.
///
/// `line` never contains a newline; the sink supplies framing. An `Err`
/// from [`emit`](Self::emit) means the line could not be delivered *or*
/// durably queued — the batch aborts with
/// [`BatchError::Sink`](crate::batch::BatchError::Sink).
pub trait ResultSink {
    /// Delivers (or durably queues) one JSONL record.
    fn emit(&mut self, line: &str) -> io::Result<()>;

    /// Flushes buffered state after the last record. Called once by the
    /// batch service; a `TcpSink` uses it for a final overflow drain.
    fn done(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Delivery counters accumulated so far.
    fn counters(&self) -> SinkCounters {
        SinkCounters::default()
    }
}

/// The plain adapter: newline-frames every record into any [`Write`]
/// (file, stdout lock, `Vec<u8>` in tests).
#[derive(Debug)]
pub struct WriteSink<W: Write> {
    inner: W,
}

impl<W: Write> WriteSink<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> Self {
        WriteSink { inner }
    }

    /// Consumes the sink, yielding the writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> ResultSink for WriteSink<W> {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        self.inner.write_all(line.as_bytes())?;
        self.inner.write_all(b"\n")
    }

    fn done(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Streams records to a TCP peer, surviving a flaky one.
///
/// * **Backoff** — reconnects with bounded exponential backoff; the jitter
///   is drawn from a seeded [`Xoshiro256StarStar`] so a farm run's retry
///   schedule is reproducible from the batch seed ([`with_seed`](Self::with_seed)).
/// * **Timeouts** — write (and, in ack mode, read) timeouts so a wedged
///   peer cannot hang the farm ([`with_write_timeout`](Self::with_write_timeout)).
/// * **Overflow queue** — with [`with_overflow`](Self::with_overflow), a
///   down peer never blocks the farm: lines spill to an on-disk queue and
///   drain, in order, on the next successful connect. Reconnect attempts
///   are time-gated by the backoff schedule so at most one connect is
///   tried per backoff window. Without an overflow path, `emit` blocks —
///   sleeping through the backoff schedule — and gives up with the last
///   I/O error after the attempt budget ([`with_backoff`](Self::with_backoff)).
/// * **Acks** — with [`with_ack`](Self::with_ack), the sink reads one byte
///   back per line before considering it delivered. TCP alone buffers
///   writes, so a peer that vanishes can silently eat tail lines; the ack
///   turns delivery into at-least-once (a line is retried unless the peer
///   confirmed it — consumers must treat duplicate records as re-sends,
///   which the journal's fingerprint makes trivial).
#[derive(Debug)]
pub struct TcpSink {
    addr: String,
    stream: Option<TcpStream>,
    rng: Xoshiro256StarStar,
    ack: bool,
    write_timeout: Duration,
    backoff_base: Duration,
    backoff_max: Duration,
    attempt_budget: u32,
    overflow: Option<PathBuf>,
    next_connect_at: Option<Instant>,
    consecutive_failures: u32,
    connected_once: bool,
    counters: SinkCounters,
}

impl TcpSink {
    /// Creates a sink for `addr` (`host:port`) with default knobs: no ack,
    /// no overflow queue, 5 s write timeout, 50 ms–2 s backoff, 5 attempts.
    pub fn new(addr: impl Into<String>) -> Self {
        TcpSink {
            addr: addr.into(),
            stream: None,
            rng: Xoshiro256StarStar::seed_from_u64(0),
            ack: false,
            write_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            attempt_budget: 5,
            overflow: None,
            next_connect_at: None,
            consecutive_failures: 0,
            connected_once: false,
            counters: SinkCounters::default(),
        }
    }

    /// Seeds the backoff jitter (pass the batch seed for a reproducible
    /// retry schedule).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Xoshiro256StarStar::seed_from_u64(seed);
        self
    }

    /// Requires a 1-byte ack from the peer per line (at-least-once
    /// delivery).
    pub fn with_ack(mut self, ack: bool) -> Self {
        self.ack = ack;
        self
    }

    /// Spills to `path` while the peer is down instead of blocking the
    /// farm; drained on reconnect.
    pub fn with_overflow(mut self, path: impl Into<PathBuf>) -> Self {
        self.overflow = Some(path.into());
        self
    }

    /// Write (and ack-read) timeout per line.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Backoff schedule: delays grow `base, 2·base, 4·base, …` capped at
    /// `max` (each halved-then-jittered deterministically); without an
    /// overflow queue, `emit` gives up after `attempts` tries.
    pub fn with_backoff(mut self, base: Duration, max: Duration, attempts: u32) -> Self {
        self.backoff_base = base;
        self.backoff_max = max;
        self.attempt_budget = attempts.max(1);
        self
    }

    /// Delay before retry number `attempt` (1-based): exponential, capped,
    /// jittered into `[raw/2, raw]` from the seeded generator.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let base_ms = self.backoff_base.as_millis().max(1) as u64;
        let max_ms = self.backoff_max.as_millis().max(1) as u64;
        let raw = base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(max_ms)
            .max(1);
        let half = raw / 2;
        let jitter = self.rng.next_u64() % (raw - half + 1);
        Duration::from_millis(half + jitter)
    }

    fn disconnect(&mut self) {
        self.stream = None;
    }

    /// Connects if disconnected, then drains any overflow backlog. On a
    /// fresh connect failure the `connect_retries` counter ticks.
    fn ensure_stream(&mut self) -> io::Result<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        match TcpStream::connect(&self.addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(self.write_timeout));
                if self.ack {
                    let _ = stream.set_read_timeout(Some(self.write_timeout));
                }
                self.stream = Some(stream);
                if self.connected_once {
                    self.counters.reconnects += 1;
                } else {
                    self.connected_once = true;
                }
                self.consecutive_failures = 0;
                self.next_connect_at = None;
                self.drain_overflow()
            }
            Err(e) => {
                self.counters.connect_retries += 1;
                Err(e)
            }
        }
    }

    /// Writes one framed line (and reads the ack); disconnects on any I/O
    /// error so the next attempt reconnects.
    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => return Err(io::Error::new(io::ErrorKind::NotConnected, "sink disconnected")),
        };
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let sent = stream.write_all(&framed).and_then(|()| stream.flush());
        if let Err(e) = sent {
            self.disconnect();
            return Err(e);
        }
        if self.ack {
            let mut ack = [0u8; 1];
            if let Err(e) = stream.read_exact(&mut ack) {
                self.disconnect();
                return Err(e);
            }
        }
        Ok(())
    }

    fn try_send(&mut self, line: &str) -> io::Result<()> {
        self.ensure_stream()?;
        self.send_raw(line)
    }

    /// Appends one line to the overflow queue (fsync'd so a subsequent
    /// crash cannot lose it).
    fn spill(&mut self, line: &str) -> io::Result<()> {
        let path = self
            .overflow
            .as_ref()
            .expect("spill requires an overflow path");
        let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        self.counters.spilled_lines += 1;
        Ok(())
    }

    /// Sends every queued line in order; on a mid-drain failure the unsent
    /// tail is written back so nothing is lost.
    fn drain_overflow(&mut self) -> io::Result<()> {
        let path = match self.overflow.clone() {
            Some(p) => p,
            None => return Ok(()),
        };
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return fs::remove_file(&path);
        }
        for (i, line) in lines.iter().enumerate() {
            if let Err(e) = self.send_raw(line) {
                // Keep only the unsent tail queued.
                let tail = lines[i..].join("\n");
                fs::write(&path, format!("{tail}\n"))?;
                return Err(e);
            }
            self.counters.drained_lines += 1;
        }
        fs::remove_file(&path)
    }

    /// True when the overflow queue still holds undelivered lines.
    pub fn has_backlog(&self) -> bool {
        self.overflow
            .as_ref()
            .map(|p| fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .unwrap_or(false)
    }
}

impl ResultSink for TcpSink {
    fn emit(&mut self, line: &str) -> io::Result<()> {
        if self.overflow.is_some() {
            // Never block the farm: respect the backoff time gate, spill
            // while the peer is down, drain on the next connect.
            if self.stream.is_none() {
                if let Some(gate) = self.next_connect_at {
                    if Instant::now() < gate {
                        return self.spill(line);
                    }
                }
            }
            match self.try_send(line) {
                Ok(()) => Ok(()),
                Err(_) => {
                    self.disconnect();
                    self.consecutive_failures += 1;
                    let delay = self.backoff_delay(self.consecutive_failures);
                    self.next_connect_at = Some(Instant::now() + delay);
                    self.spill(line)
                }
            }
        } else {
            // Blocking mode: sleep through the backoff schedule, give up
            // with the last error once the attempt budget is spent.
            let mut attempt = 0u32;
            loop {
                match self.try_send(line) {
                    Ok(()) => return Ok(()),
                    Err(e) => {
                        self.disconnect();
                        attempt += 1;
                        if attempt >= self.attempt_budget {
                            return Err(e);
                        }
                        let delay = self.backoff_delay(attempt);
                        thread::sleep(delay);
                    }
                }
            }
        }
    }

    fn done(&mut self) -> io::Result<()> {
        // Final drain attempt for the overflow backlog; an unreachable
        // peer is not an error here — the queue file survives on disk.
        if self.has_backlog() {
            let mut attempt = 0u32;
            while self.has_backlog() && attempt < self.attempt_budget {
                self.next_connect_at = None;
                if self.try_send_nothing().is_ok() && !self.has_backlog() {
                    break;
                }
                attempt += 1;
                let delay = self.backoff_delay(attempt);
                thread::sleep(delay);
            }
        }
        if let Some(stream) = self.stream.as_mut() {
            stream.flush()?;
        }
        Ok(())
    }

    fn counters(&self) -> SinkCounters {
        self.counters
    }
}

impl TcpSink {
    /// Connect-and-drain without a payload line (used by the final drain).
    fn try_send_nothing(&mut self) -> io::Result<()> {
        self.ensure_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::{run_channel_sim, ChannelSimConfig};

    fn cfg() -> ChannelSimConfig {
        let mut c = ChannelSimConfig::figure6(50, 0.4, 77);
        c.superframes = 8;
        c
    }

    #[test]
    fn streaming_matches_trace_reduction() {
        let trace = run_channel_sim(&cfg(), |_| false);
        let mut sink = StatsSink::new();
        trace.replay(&mut sink);
        let streamed = sink.contention_stats();
        let reduced = trace.contention_stats();
        assert_eq!(streamed, reduced);
        assert_eq!(sink.failure_ratio(), trace.transaction_failure_ratio());
        assert_eq!(sink.mean_attempts(), trace.mean_attempts());
        assert_eq!(
            sink.mean_delivery_superframes(),
            trace.mean_delivery_superframes()
        );
        assert_eq!(sink.overruns, trace.overruns);
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let trace = run_channel_sim(&cfg(), |_| false);
        let mut tee = TeeSink(
            StatsSink::new(),
            TraceCollector::new(trace.superframe_slots),
        );
        trace.replay(&mut tee);
        let TeeSink(stats, collector) = tee;
        let copy = collector.into_trace();
        assert_eq!(copy.attempts, trace.attempts);
        assert_eq!(copy.transactions, trace.transactions);
        assert_eq!(stats.contention_stats(), trace.contention_stats());
    }
}
