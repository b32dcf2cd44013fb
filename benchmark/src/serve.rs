//! `serve_closed` and `serve_open`: load from this process against the
//! repository's `policy_server` binary, serving the paper-shape policy
//! on recorded encoder observations.
//!
//! * Closed loop: one connection per hardware thread, each keeping 32
//!   requests in flight; measures saturated throughput.
//! * Open loop: seeded Poisson arrivals, split over a v1 connection to
//!   the default tenant and a v2 connection to tenant 7, whose
//!   checkpoint is republished every 2 s so hot reloads run beside the
//!   reads. A ladder of fixed rates gives latency at known loads, and
//!   its long last step, a heavy load below the knee, gives goodput:
//!   requests answered correctly within the latency limit per second.
//!   Each request is timed from its scheduled send, so a stalled
//!   generator shows up as latency.
//!
//! Every answered action is compared with in-process
//! `GreedyPolicy::act_greedy` on the same observation.

use crate::stats::{mix, sorted, tail_value, throughput, Digest, PoissonSchedule};
use crate::sys;
use crate::trace;
use crate::{repeat_setup, Ctx, Outcome};
use ctjam_core::defender::{Defender, DqnDefender};
use ctjam_core::env::{Decision, EnvParams, Outcome as SlotOutcomeKind, SlotResult};
use ctjam_core::runner::RunBuilder;
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::checkpoint;
use ctjam_dqn::encode::{ObservationEncoder, SlotOutcome, SlotRecord};
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_dqn::replay::ReplayBuffer;
use ctjam_fleet::SharedPolicyDefender;
use ctjam_nn::batch::Batch;
use ctjam_serve::protocol::{ErrorCode, Message, WireError, DEFAULT_TENANT};
use ctjam_telemetry::JsonValue;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests each closed-loop connection keeps in flight.
const WINDOW: usize = 32;
/// Recorded observations cycled per connection.
const OBS_PER_CONN: usize = 4_096;
/// Latency limit of the open loop, measured from the scheduled send.
const SLO_US: f64 = 2_000.0;
/// Offered rates of the open loop's ladder, requests per second. The
/// last is the heavy step: on the reference machine, when this benchmark
/// was written, it kept attainment near 0.99 while latency began to
/// climb, and twice its rate overloaded the server. A change that costs
/// capacity or admits worse loses goodput there first.
pub const RATES: [u32; 5] = [20_000, 40_000, 80_000, 160_000, 320_000];
/// The extra tenant of the open loop, reached with v2 frames.
const TENANT: u32 = 7;
/// Longest a reply may take before it counts as lost.
const DRAIN: Duration = Duration::from_secs(2);

/// Window lengths derived from `--seconds` or from quick mode.
struct Timing {
    warmup: Duration,
    closed_window: Duration,
    /// Each step of the open loop's ladder but the last.
    open_step: Duration,
    /// The ladder's last, heavy step.
    heavy_step: Duration,
    republish_every: Duration,
}

impl Timing {
    fn of(ctx: &Ctx) -> Timing {
        if ctx.quick {
            Timing {
                warmup: Duration::from_millis(200),
                closed_window: Duration::from_secs(1),
                open_step: Duration::from_millis(250),
                heavy_step: Duration::from_millis(500),
                republish_every: Duration::from_millis(250),
            }
        } else {
            Timing {
                warmup: Duration::from_secs(2),
                closed_window: Duration::from_secs(ctx.seconds),
                open_step: Duration::from_secs_f64(ctx.seconds as f64 / 8.0),
                heavy_step: Duration::from_secs_f64(ctx.seconds as f64 / 2.0),
                republish_every: Duration::from_secs(2),
            }
        }
    }
}

/// A running `policy_server` child. Dropping it kills and reaps the
/// process if [`ServerProc::finish`] did not already stop it.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    started: Instant,
}

impl ServerProc {
    fn spawn(checkpoint: &Path, env: &[(&str, String)]) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let bin = exe.with_file_name("policy_server");
        let mut cmd = Command::new(&bin);
        cmd.arg(checkpoint).arg("127.0.0.1:0");
        // Only the settings below reach the server.
        for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("CTJAM_")) {
            cmd.env_remove(key);
        }
        for (key, value) in env {
            cmd.env(key, value);
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("policy_server exited before LISTENING".into());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                break addr
                    .parse()
                    .map_err(|e| format!("bad LISTENING line {line:?}: {e}"))?;
            }
        };
        Ok(ServerProc {
            child,
            stdout,
            addr,
            started,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin (graceful drain), waits for exit, and returns the
    /// server's final `METRICS` object and its lifetime in seconds.
    fn finish(&mut self) -> Result<(JsonValue, f64), String> {
        drop(self.child.stdin.take());
        let mut metrics = None;
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            if let Some(json) = line.trim().strip_prefix("METRICS ") {
                metrics = ctjam_scenario::json::parse_str(json).ok();
            }
            line.clear();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let lifetime = self.started.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!("policy_server exited with {status}"));
        }
        metrics
            .map(|m| (m, lifetime))
            .ok_or_else(|| "policy_server printed no METRICS".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A defender that records the encoder observation the wrapped shared
/// policy decides on each slot, keeping its own encoder in step with
/// the outcomes and hops it is fed back.
struct Recorder {
    inner: SharedPolicyDefender,
    encoder: ObservationEncoder,
    channel: usize,
    channels: usize,
    observations: Vec<Vec<f64>>,
    /// `(hop, power level)` of each decision, as the policy encodes it.
    decisions: Vec<(usize, usize)>,
}

impl Defender for Recorder {
    fn name(&self) -> &str {
        "observation recorder"
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        self.observations.push(self.encoder.encode());
        let decision = self.inner.decide(rng);
        let hop = (decision.channel + self.channels - self.channel) % self.channels;
        self.decisions.push((hop, decision.power_level));
        decision
    }

    fn feedback(&mut self, result: &SlotResult, rng: &mut dyn RngCore) {
        let outcome = match result.outcome {
            SlotOutcomeKind::Clean => SlotOutcome::Success,
            SlotOutcomeKind::JammedSurvived => SlotOutcome::SuccessUnderJamming,
            SlotOutcomeKind::Jammed => SlotOutcome::Failure,
        };
        self.encoder.push(SlotRecord {
            outcome,
            channel: (result.decision.channel + self.channels - self.channel) % self.channels,
            power_level: result.decision.power_level,
        });
        self.channel = result.decision.channel;
        self.inner.feedback(result, rng);
    }
}

/// A served policy with its checkpoint and oracle answers.
struct Tenant {
    policy: GreedyPolicy,
    checkpoint: PathBuf,
    expected: Vec<u32>,
}

/// Everything set-up produces: the trained policies, the recorded
/// observations and the server, ready for load.
struct Prepared {
    server: ServerProc,
    observations: Vec<Vec<f64>>,
    default: Tenant,
    extra: Option<Tenant>,
    digest: String,
}

impl Prepared {
    fn dispose(mut self) {
        let _ = self.server.finish();
        self.remove_checkpoints();
    }

    fn remove_checkpoints(&self) {
        std::fs::remove_file(&self.default.checkpoint).ok();
        if let Some(t) = &self.extra {
            std::fs::remove_file(&t.checkpoint).ok();
        }
    }
}

/// The agent's networks and optimizer without its replay buffer: what
/// the server loads, small enough to republish cheaply.
fn serving_agent(agent: &DqnAgent) -> DqnAgent {
    DqnAgent::from_parts(
        agent.config().clone(),
        agent.network().clone(),
        agent.target_network().clone(),
        agent.optimizer().clone(),
        ReplayBuffer::new(agent.replay_capacity()),
        agent.steps(),
        agent.train_steps(),
        agent.skipped_train_steps(),
        agent.last_loss(),
    )
}

fn tenant(agent: &DqnAgent, observations: &[Vec<f64>], path: PathBuf) -> Result<Tenant, String> {
    checkpoint::save_agent(&serving_agent(agent), &path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    let policy = GreedyPolicy::from_agent(agent);
    let expected = observations
        .iter()
        .map(|o| policy.act_greedy(o) as u32)
        .collect();
    Ok(Tenant {
        policy,
        checkpoint: path,
        expected,
    })
}

/// Set-up: train the paper-shape policy, record the observations it
/// meets in an evaluation run, write the checkpoints and start the
/// server up to its `LISTENING` line.
fn prepare(ctx: &Ctx, open: bool, rep: usize) -> Result<Prepared, String> {
    let params = EnvParams::default();
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 0x5E57E));
    let mut defender = DqnDefender::paper_default(&params, &mut rng);
    let train_slots = if ctx.quick { 500 } else { 4_000 };
    RunBuilder::new(&params).train(&mut defender, train_slots, &mut rng);
    let agent = defender.agent().clone();

    let policy = Arc::new(GreedyPolicy::from_agent(&agent));
    let shared = SharedPolicyDefender::new(Arc::clone(&policy), &params, &mut rng);
    let mut recorder = Recorder {
        channel: shared.current_channel(),
        channels: params.num_channels(),
        inner: shared,
        encoder: ObservationEncoder::new(
            agent.config().history_len,
            params.num_channels(),
            params.num_powers(),
        ),
        observations: Vec::new(),
        decisions: Vec::new(),
    };
    let conns = ctx.threads.max(2);
    RunBuilder::new(&params).evaluate(&mut recorder, conns * OBS_PER_CONN, &mut rng);
    let observations = recorder.observations;

    let stem = ctx.out.join(format!("serve-{}-{rep}", std::process::id()));
    let default = tenant(&agent, &observations, stem.with_extension("ckpt"))?;
    // The recording reproduces the decisions the policy made from it.
    for (i, (action, decision)) in default.expected.iter().zip(&recorder.decisions).enumerate() {
        if agent.config().decode_action(*action as usize) != *decision {
            return Err(format!(
                "recorded observation {i} does not reproduce its decision"
            ));
        }
    }
    let extra = if open {
        // Tenant 7 serves the same policy trained a little further, so
        // a reply routed to the wrong tenant shows as a wrong action.
        RunBuilder::new(&params).train(&mut defender, 500, &mut rng);
        Some(tenant(
            defender.agent(),
            &observations,
            stem.with_extension("t7.ckpt"),
        )?)
    } else {
        None
    };

    let mut env = vec![
        ("CTJAM_SERVE_MAX_BATCH", "32".to_string()),
        ("CTJAM_SERVE_MAX_WAIT_US", "200".to_string()),
        ("CTJAM_SERVE_WORKERS", ctx.threads.to_string()),
    ];
    if let Some(t) = &extra {
        env.push(("CTJAM_SERVE_MAX_QUEUE_DELAY_US", "1000".to_string()));
        env.push((
            "CTJAM_SERVE_TENANTS",
            format!("{TENANT}={}", t.checkpoint.display()),
        ));
        env.push(("CTJAM_SERVE_WATCH", "1".to_string()));
    }
    let server = ServerProc::spawn(&default.checkpoint, &env)?;

    let mut d = Digest::default();
    for t in std::iter::once(&default).chain(&extra) {
        for w in t.policy.network().flatten_params() {
            d.f64(w);
        }
        for &a in &t.expected {
            d.u64(u64::from(a));
        }
    }
    for o in &observations {
        for &v in o {
            d.f64(v);
        }
    }
    Ok(Prepared {
        server,
        observations,
        default,
        extra,
        digest: d.hex(),
    })
}

fn setup(ctx: &Ctx, out: &mut Outcome, open: bool) -> Option<Prepared> {
    let mut rep = 0;
    let prepared = repeat_setup(
        ctx,
        out,
        || {
            rep += 1;
            prepare(ctx, open, rep)
        },
        |p| match p {
            Ok(p) => p.digest.clone(),
            Err(e) => e.clone(),
        },
        |p| {
            if let Ok(p) = p {
                p.dispose();
            }
        },
    );
    match prepared {
        Ok(p) => {
            out.digests.push(("outputs".into(), p.digest.clone()));
            Some(p)
        }
        Err(e) => {
            out.fail(e);
            None
        }
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let tcp = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    tcp.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(tcp)
}

/// Decodes every complete frame at the front of `buf`, passing each to
/// `on_frame`, and drops the consumed bytes.
fn drain_frames(
    buf: &mut Vec<u8>,
    mut on_frame: impl FnMut(Message) -> Result<(), String>,
) -> Result<(), String> {
    let mut consumed = 0;
    loop {
        match Message::decode(&buf[consumed..]) {
            Ok((msg, used)) => {
                consumed += used;
                on_frame(msg)?;
            }
            Err(WireError::Truncated) => break,
            Err(e) => return Err(format!("undecodable reply: {e:?}")),
        }
    }
    buf.drain(..consumed);
    Ok(())
}

/// Equal sub-windows of the closed-loop window, whose rates feed the
/// throughput statistic.
const SUB_WINDOWS: usize = 160;

/// What one closed-loop connection saw. Counts are of replies landing in
/// the measured window, except `wrong_actions`, which covers every reply.
#[derive(Default)]
struct ClosedStats {
    answered: u64,
    /// Correct replies per sub-window.
    per_window: Vec<u64>,
    errors: u64,
    mismatches: u64,
    wrong_actions: u64,
}

/// One closed-loop connection: keeps [`WINDOW`] requests in flight until
/// `stop`, then drains. Replies landing in `[measure_from, stop)` are
/// the ones measured.
fn closed_client(
    addr: SocketAddr,
    observations: &[Vec<f64>],
    expected: &[u32],
    measure_from: Instant,
    stop: Instant,
) -> Result<ClosedStats, String> {
    let tcp = connect(addr)?;
    tcp.set_read_timeout(Some(DRAIN))
        .map_err(|e| e.to_string())?;
    let mut stats = ClosedStats {
        per_window: vec![0; SUB_WINDOWS],
        ..ClosedStats::default()
    };
    let sub_window = (stop - measure_from) / SUB_WINDOWS as u32;
    let mut in_flight: HashSet<u64> = HashSet::with_capacity(WINDOW * 2);
    let (mut sendbuf, mut recvbuf) = (Vec::new(), Vec::new());
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next_id = 0u64;
    loop {
        let sending = Instant::now() < stop;
        if sending && in_flight.len() < WINDOW {
            sendbuf.clear();
            while in_flight.len() < WINDOW {
                let i = (next_id % observations.len() as u64) as usize;
                Message::Observe {
                    id: next_id,
                    tenant: DEFAULT_TENANT,
                    observation: observations[i].clone(),
                }
                .encode_into(&mut sendbuf);
                in_flight.insert(next_id);
                next_id += 1;
            }
            (&tcp)
                .write_all(&sendbuf)
                .map_err(|e| format!("send: {e}"))?;
        }
        if in_flight.is_empty() {
            return Ok(stats);
        }
        let n = (&tcp)
            .read(&mut chunk)
            .map_err(|e| format!("reply wait: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        recvbuf.extend_from_slice(&chunk[..n]);
        let now = Instant::now();
        let measured = now >= measure_from && now < stop;
        drain_frames(&mut recvbuf, |msg| {
            let id = msg.id();
            if !in_flight.remove(&id) {
                return Err(format!("reply to unknown id {id}"));
            }
            let right = match msg {
                Message::Action { action, .. } => {
                    let right = action == expected[(id % expected.len() as u64) as usize];
                    stats.wrong_actions += u64::from(!right);
                    Some(right)
                }
                _ => None,
            };
            if measured {
                match right {
                    Some(true) => {
                        stats.answered += 1;
                        let w = ((now - measure_from).as_nanos() / sub_window.as_nanos().max(1))
                            as usize;
                        stats.per_window[w.min(SUB_WINDOWS - 1)] += 1;
                    }
                    Some(false) => stats.mismatches += 1,
                    None => stats.errors += 1,
                }
            }
            Ok(())
        })?;
    }
}

/// One rate step of the open loop, in nanoseconds from the loop's start.
/// `rate` is the total over both connections.
#[derive(Clone, Copy)]
struct Step {
    rate: f64,
    start_ns: u64,
    end_ns: u64,
}

/// The open loop's contiguous steps: a warm-up at the first rate, then
/// one step per rate of [`RATES`].
fn open_steps(timing: &Timing) -> Vec<Step> {
    let mut steps: Vec<Step> = Vec::new();
    let lengths = std::iter::once(timing.warmup)
        .chain(std::iter::repeat_n(timing.open_step, RATES.len() - 1))
        .chain([timing.heavy_step]);
    let rates = std::iter::once(RATES[0]).chain(RATES);
    for (rate, length) in rates.zip(lengths) {
        let start_ns = steps.last().map_or(0, |s| s.end_ns);
        steps.push(Step {
            rate: f64::from(rate),
            start_ns,
            end_ns: start_ns + length.as_nanos() as u64,
        });
    }
    steps
}

/// What one open-loop connection saw during one step.
#[derive(Default, Clone)]
struct StepStats {
    offered: u64,
    answered: u64,
    within_slo: u64,
    refused: u64,
    errors: u64,
    mismatches: u64,
    /// Samples are `f32` microseconds: the top steps offer millions.
    latencies_us: Vec<f32>,
    lateness_us: Vec<f32>,
    backlog_mid: u64,
    backlog_end: u64,
}

impl StepStats {
    fn absorb(&mut self, other: StepStats) {
        self.offered += other.offered;
        self.answered += other.answered;
        self.within_slo += other.within_slo;
        self.refused += other.refused;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.latencies_us.extend(other.latencies_us);
        self.lateness_us.extend(other.lateness_us);
        self.backlog_mid += other.backlog_mid;
        self.backlog_end += other.backlog_end;
    }

    fn attainment(&self) -> f64 {
        self.within_slo as f64 / self.offered as f64
    }

    fn lost(&self) -> u64 {
        self.offered - self.answered - self.mismatches - self.refused - self.errors
    }

    /// Whether the step kept up with its offered `rate` (requests per
    /// second over both connections): attainment of at least 0.99, an
    /// in-flight backlog that grew by no more than 1 ms of arrivals from
    /// mid-step to the step's end, and generator lateness p99 ≤ 1 ms.
    fn sustained(&self, rate: f64) -> bool {
        let growing = self.backlog_end > self.backlog_mid + (rate / 1_000.0) as u64;
        self.attainment() >= 0.99
            && !growing
            && tail_value(&sorted_us(&self.lateness_us), 0.99) <= 1_000.0
    }
}

/// The send times of one of `conns` connections sharing every step's
/// rate, in nanoseconds from the loop's start: a seeded Poisson stream
/// per step.
fn schedule(steps: &[Step], conns: usize, seed: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        out.extend(
            PoissonSchedule::new(step.rate / conns as f64, mix(seed, i as u64))
                .map(|t| step.start_ns + t)
                .take_while(|&t| t < step.end_ns),
        );
    }
    out
}

/// The step a send time falls in (steps are contiguous and ordered).
fn step_of(steps: &[Step], due_ns: u64) -> usize {
    steps.partition_point(|s| s.start_ns <= due_ns) - 1
}

/// Microsecond samples, widened and sorted for percentiles.
fn sorted_us(samples: &[f32]) -> Vec<f64> {
    sorted(samples.iter().map(|&v| f64::from(v)).collect())
}

/// One open-loop connection. A sender thread writes each request at its
/// scheduled time whatever the replies do (sleeping between sends, so
/// it runs late by the sleep's overshoot — recorded as lateness), and a
/// reader thread blocks on the socket so every reply is timestamped as
/// it arrives. `plan` holds the send times from [`schedule`]. Returns
/// per-step statistics.
fn open_client(
    addr: SocketAddr,
    tenant: u32,
    observations: &[Vec<f64>],
    expected: &[u32],
    steps: &[Step],
    plan: &[u64],
    t0: Instant,
) -> Result<Vec<StepStats>, String> {
    let tcp = connect(addr)?;
    let reader_tcp = tcp.try_clone().map_err(|e| e.to_string())?;
    // Only the reader's exit condition needs this; it bounds shutdown.
    reader_tcp
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let replied = AtomicU64::new(0);
    let deadline_ns = steps.last().map_or(0, |s| s.end_ns) + DRAIN.as_nanos() as u64;
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut stats = vec![StepStats::default(); steps.len()];
            let mut answered = vec![false; plan.len()];
            let (mut buf, mut chunk) = (Vec::new(), vec![0u8; 64 * 1024]);
            while (replied.load(Ordering::Relaxed) as usize) < plan.len() {
                let n = match (&reader_tcp).read(&mut chunk) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(n) => n,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if t0.elapsed().as_nanos() as u64 > deadline_ns {
                            break;
                        }
                        continue;
                    }
                    Err(e) => return Err(format!("read: {e}")),
                };
                let reply_ns = t0.elapsed().as_nanos() as u64;
                buf.extend_from_slice(&chunk[..n]);
                drain_frames(&mut buf, |msg| {
                    let id = msg.id() as usize;
                    let Some(&due) = plan.get(id).filter(|_| !answered[id]) else {
                        return Err(format!("reply to unknown id {id}"));
                    };
                    let step = step_of(steps, due);
                    answered[id] = true;
                    replied.fetch_add(1, Ordering::Relaxed);
                    let st = &mut stats[step];
                    match msg {
                        Message::Action { action, .. }
                            if action == expected[id % expected.len()] =>
                        {
                            let latency_us = reply_ns.saturating_sub(due) as f64 / 1e3;
                            st.answered += 1;
                            st.latencies_us.push(latency_us as f32);
                            if latency_us <= SLO_US {
                                st.within_slo += 1;
                            }
                        }
                        Message::Action { .. } => st.mismatches += 1,
                        Message::Error {
                            code: ErrorCode::Overloaded | ErrorCode::ServerBusy,
                            ..
                        } => st.refused += 1,
                        _ => st.errors += 1,
                    }
                    Ok(())
                })?;
            }
            Ok(stats)
        });

        let mut stats = vec![StepStats::default(); steps.len()];
        let mut marks: Vec<(u64, usize, bool)> = steps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| [((s.start_ns + s.end_ns) / 2, i, false), (s.end_ns, i, true)])
            .collect();
        marks.sort_unstable();
        let mut next_mark = 0;
        let mut sendbuf = Vec::new();
        let mut next = 0;
        let mut sent = 0u64;
        let mut send_error = None;
        while next < plan.len() || next_mark < marks.len() {
            let now_ns = t0.elapsed().as_nanos() as u64;
            sendbuf.clear();
            while next < plan.len() && plan[next] <= now_ns {
                let due = plan[next];
                let step = step_of(steps, due);
                let observation = observations[next % observations.len()].clone();
                Message::Observe {
                    id: next as u64,
                    tenant,
                    observation,
                }
                .encode_into(&mut sendbuf);
                stats[step].offered += 1;
                stats[step].lateness_us.push((now_ns - due) as f32 / 1e3);
                next += 1;
                sent += 1;
            }
            if !sendbuf.is_empty() {
                if let Err(e) = (&tcp).write_all(&sendbuf) {
                    send_error = Some(format!("send: {e}"));
                    break;
                }
            }
            while next_mark < marks.len() && now_ns >= marks[next_mark].0 {
                let (_, i, end) = marks[next_mark];
                let inflight = sent - replied.load(Ordering::Relaxed);
                if end {
                    stats[i].backlog_end = inflight;
                } else {
                    stats[i].backlog_mid = inflight;
                }
                next_mark += 1;
            }
            let wake = match (plan.get(next), marks.get(next_mark)) {
                (Some(&due), Some(&(mark, _, _))) => due.min(mark),
                (Some(&due), None) => due,
                (None, Some(&(mark, _, _))) => mark,
                (None, None) => break,
            };
            let now_ns = t0.elapsed().as_nanos() as u64;
            if wake > now_ns {
                std::thread::sleep(Duration::from_nanos(wake - now_ns));
            }
        }
        if send_error.is_some() {
            // Unblock the reader: nothing more will be answered.
            let _ = tcp.shutdown(std::net::Shutdown::Both);
        }
        let replies = reader.join().expect("reader thread panicked");
        if let Some(e) = send_error {
            return Err(e);
        }
        for (into, from) in stats.iter_mut().zip(replies?) {
            into.absorb(from);
        }
        Ok(stats)
    })
}

fn num(json: &JsonValue, path: &[&str]) -> f64 {
    let mut v = json;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return f64::NAN,
        }
    }
    match v {
        JsonValue::Num(n) => *n,
        _ => f64::NAN,
    }
}

/// Direct-call timings of the layers a request crosses outside the
/// socket: frame encode and decode, and the batched greedy forward at
/// the occupancy the server reached.
fn time_layers(out: &mut Outcome, prepared: &Prepared, occupancy: f64) -> f64 {
    let obs = &prepared.observations;
    let reps = 20_000;
    trace::take();
    let mut buf = Vec::new();
    for i in 0..reps {
        buf.clear();
        let msg = Message::Observe {
            id: i as u64,
            tenant: DEFAULT_TENANT,
            observation: obs[i % obs.len()].clone(),
        };
        let s = trace::span("protocol.encode");
        msg.encode_into(&mut buf);
        s.finish();
        let s = trace::span("protocol.decode");
        let decoded = Message::decode(&buf);
        s.finish();
        std::hint::black_box(decoded.is_ok());
    }
    let rows = (occupancy.round() as usize).max(1);
    let policy = &prepared.default.policy;
    let mut batch = Batch::with_cols(policy.input_size());
    for o in obs.iter().take(rows) {
        batch.push_row(o);
    }
    let mut scratch = policy.scratch();
    let mut actions = Vec::new();
    for _ in 0..reps / 10 {
        let _s = trace::span("policy.forward_batch");
        policy.act_greedy_batch(&batch, &mut scratch, &mut actions);
    }
    let t = trace::take();
    out.layers.insert(
        "protocol.encode_ns".into(),
        t.get("protocol.encode").mean_ns(),
    );
    out.layers.insert(
        "protocol.decode_ns".into(),
        t.get("protocol.decode").mean_ns(),
    );
    let forward_ns = t.get("policy.forward_batch").mean_ns();
    out.layers
        .insert("policy.forward_batch_ns".into(), forward_ns);
    out.traces.push(("serve.layers".into(), t));
    forward_ns
}

/// Per-layer numbers from the server's own `METRICS` report.
fn server_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    prepared: &Prepared,
    metrics: &JsonValue,
    lifetime_s: f64,
) {
    let occupancy = num(metrics, &["mean_batch_occupancy"]);
    let forward_ns = time_layers(out, prepared, occupancy);
    let batches = num(metrics, &["counters", "batches"]);
    let l = &mut out.layers;
    l.insert(
        "server.latency_p50_us".into(),
        num(metrics, &["latency_us", "p50"]),
    );
    l.insert(
        "server.latency_p99_us".into(),
        num(metrics, &["latency_us", "p99"]),
    );
    l.insert("batcher.occupancy".into(), occupancy);
    l.insert("batcher.batches".into(), batches);
    l.insert(
        "batcher.queue_depth_p99".into(),
        num(metrics, &["queue_depth", "p99"]),
    );
    l.insert(
        "server.forward_busy_frac".into(),
        batches * forward_ns / (ctx.threads as f64 * lifetime_s * 1e9),
    );
    l.insert(
        "server.slo_rejections".into(),
        num(metrics, &["counters", "slo_rejections"]),
    );
    l.insert(
        "server.busy_rejections".into(),
        num(metrics, &["counters", "busy_rejections"]),
    );
    l.insert(
        "server.reloads_ok".into(),
        num(metrics, &["counters", "reloads_ok"]),
    );
    // No span runs inside the timed loops; client-side layers are
    // timed by direct calls after the window.
    l.insert("trace_overhead_frac".into(), 0.0);
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

pub fn run_closed(ctx: &Ctx, out: &mut Outcome) {
    let Some(mut prepared) = setup(ctx, out, false) else {
        return;
    };
    let timing = Timing::of(ctx);
    let conns = ctx.threads;
    out.config = format!(
        "serve_closed conns={conns} window={WINDOW} workers={} measure={:?}",
        ctx.threads, timing.closed_window
    );
    let addr = prepared.server.addr;
    let pid = prepared.server.pid();
    let start = Instant::now();
    let measure_from = start + timing.warmup;
    let stop = measure_from + timing.closed_window;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let obs = &prepared.observations[c * OBS_PER_CONN..(c + 1) * OBS_PER_CONN];
                let expected = &prepared.default.expected[c * OBS_PER_CONN..(c + 1) * OBS_PER_CONN];
                scope.spawn(move || closed_client(addr, obs, expected, measure_from, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    out.peak_rss_mb = sys::peak_rss_mb(Some(pid)).unwrap_or(f64::NAN);
    let server = prepared.server.finish();
    prepared.remove_checkpoints();

    let mut total = ClosedStats {
        per_window: vec![0; SUB_WINDOWS],
        ..ClosedStats::default()
    };
    for r in results {
        match r {
            Ok(s) => {
                total.answered += s.answered;
                for (into, n) in total.per_window.iter_mut().zip(&s.per_window) {
                    *into += n;
                }
                total.errors += s.errors;
                total.mismatches += s.mismatches;
                total.wrong_actions += s.wrong_actions;
            }
            Err(e) => out.fail(format!("client: {e}")),
        }
    }
    out.check(total.wrong_actions == 0, || {
        format!(
            "{} served actions differ from act_greedy",
            total.wrong_actions
        )
    });
    // Replies landing in the measured window, as `answered` counts them.
    out.attempted = total.answered + total.errors + total.mismatches;
    out.failed = total.errors + total.mismatches;
    let window_s = timing.closed_window.as_secs_f64() / SUB_WINDOWS as f64;
    let rates: Vec<f64> = total
        .per_window
        .iter()
        .map(|&n| n as f64 / window_s)
        .collect();
    out.throughput_per_s = throughput("serve_closed", &rates);
    eprintln!(
        "serve_closed: {} correct replies in {:?} ({:.0}/s overall)",
        total.answered,
        timing.closed_window,
        total.answered as f64 / timing.closed_window.as_secs_f64()
    );
    match server {
        Ok((metrics, lifetime)) => {
            if ctx.trace {
                server_layers(ctx, out, &prepared, &metrics, lifetime);
            }
        }
        Err(e) => out.fail(e),
    }
}

pub fn run_open(ctx: &Ctx, out: &mut Outcome) {
    let Some(mut prepared) = setup(ctx, out, true) else {
        return;
    };
    let timing = Timing::of(ctx);
    let steps = open_steps(&timing);
    out.config = format!(
        "serve_open rates={RATES:?} step={:?} heavy_step={:?} slo_us={SLO_US} workers={}",
        timing.open_step, timing.heavy_step, ctx.threads
    );
    let addr = prepared.server.addr;
    let pid = prepared.server.pid();
    let extra = prepared
        .extra
        .as_ref()
        .expect("the open loop serves two tenants");
    let Ok(republish) = std::fs::read(&extra.checkpoint) else {
        return out.fail("cannot read tenant 7's checkpoint".into());
    };
    // Two connections share each step's rate: the default tenant on v1
    // frames and tenant 7 on v2 frames.
    let conns = [(DEFAULT_TENANT, &prepared.default), (TENANT, extra)];
    let sends: Vec<Vec<u64>> = (0..conns.len())
        .map(|c| schedule(&steps, conns.len(), mix(ctx.seed, 0x0BE0 + c as u64)))
        .collect();
    let t0 = Instant::now();
    let ladder_start = t0 + timing.warmup;
    let ladder_end = t0 + Duration::from_nanos(steps.last().map_or(0, |s| s.end_ns));
    let mut republished = 0u64;
    let mut republish_errors = Vec::new();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(&sends)
            .enumerate()
            .map(|(c, (&(tenant_id, t), sends))| {
                let steps = &steps;
                let obs = &prepared.observations[c * OBS_PER_CONN..(c + 1) * OBS_PER_CONN];
                let expected = &t.expected[c * OBS_PER_CONN..(c + 1) * OBS_PER_CONN];
                scope.spawn(move || open_client(addr, tenant_id, obs, expected, steps, sends, t0))
            })
            .collect();
        // Republish tenant 7's checkpoint (same weights, fresh file) on
        // a fixed period while the ladder runs: the hot-reload write
        // path beside the reads.
        let mut next = ladder_start + timing.republish_every;
        while next < ladder_end {
            sleep_until(next);
            let tmp = extra.checkpoint.with_extension("publish");
            match std::fs::write(&tmp, &republish)
                .and_then(|()| std::fs::rename(&tmp, &extra.checkpoint))
            {
                Ok(()) => republished += 1,
                Err(e) => republish_errors.push(e.to_string()),
            }
            next += timing.republish_every;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    out.peak_rss_mb = sys::peak_rss_mb(Some(pid)).unwrap_or(f64::NAN);
    let server = prepared.server.finish();
    prepared.remove_checkpoints();
    for e in republish_errors {
        out.fail(format!("republishing tenant 7: {e}"));
    }

    let mut per_step = vec![StepStats::default(); steps.len()];
    for r in results {
        match r {
            Ok(stats) => {
                for (into, s) in per_step.iter_mut().zip(stats) {
                    into.absorb(s);
                }
            }
            Err(e) => out.fail(format!("client: {e}")),
        }
    }
    let wrong: u64 = per_step.iter().map(|s| s.mismatches).sum();
    out.check(wrong == 0, || {
        format!("{wrong} served actions differ from act_greedy")
    });
    // The ladder after the warm-up is measured. Typed refusals are the
    // server's designed answer to overload: they miss the latency limit
    // (attainment) but are not failures.
    let ladder = &per_step[1..];
    let total = |count: fn(&StepStats) -> u64| ladder.iter().map(count).sum::<u64>();
    out.attempted = total(|s| s.offered);
    out.failed = total(|s| s.mismatches) + total(|s| s.errors) + total(StepStats::lost);
    let heavy = ladder.last().expect("the ladder has steps");
    out.throughput_per_s = heavy.within_slo as f64 / timing.heavy_step.as_secs_f64();

    // Latency and attainment per step, and the highest step that kept
    // up: reported per layer, measured in every run.
    let mut max_rate = 0.0;
    for (rate, s) in RATES.iter().zip(ladder) {
        let lat = sorted_us(&s.latencies_us);
        let lateness = sorted_us(&s.lateness_us);
        eprintln!(
            "open step {rate}/s: offered {} attainment {:.4} p50 {:.0} us p99 {:.0} us refused {} lateness p99 {:.0} us backlog {}→{}",
            s.offered,
            s.attainment(),
            tail_value(&lat, 0.5),
            tail_value(&lat, 0.99),
            s.refused,
            tail_value(&lateness, 0.99),
            s.backlog_mid,
            s.backlog_end,
        );
        if s.sustained(f64::from(*rate)) {
            max_rate = f64::from(*rate);
        }
        let l = &mut out.layers;
        l.insert(format!("open.{rate}.p50_us"), tail_value(&lat, 0.5));
        l.insert(format!("open.{rate}.p99_us"), tail_value(&lat, 0.99));
        l.insert(format!("open.{rate}.attainment"), s.attainment());
    }
    let lateness: Vec<f32> = ladder
        .iter()
        .flat_map(|s| &s.lateness_us)
        .copied()
        .collect();
    let l = &mut out.layers;
    l.insert(
        "generator.lateness_p99_us".into(),
        tail_value(&sorted_us(&lateness), 0.99),
    );
    l.insert("generator.backlog_end".into(), heavy.backlog_end as f64);
    l.insert("open.max_rate_rps".into(), max_rate);
    l.insert(
        "open.slo_attainment".into(),
        total(|s| s.within_slo) as f64 / total(|s| s.offered) as f64,
    );

    match server {
        Ok((metrics, lifetime)) => {
            let reloads = num(
                &metrics,
                &["tenants", &TENANT.to_string(), "counters", "reloads_ok"],
            );
            out.check(reloads + 1.0 >= republished as f64, || {
                format!("tenant 7 reloaded {reloads} of {republished} republished checkpoints")
            });
            if ctx.trace {
                server_layers(ctx, out, &prepared, &metrics, lifetime);
            }
        }
        Err(e) => out.fail(e),
    }
}
