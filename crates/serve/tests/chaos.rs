//! Chaos tests against the real `policy_server` binary: SIGKILL the
//! server mid-load, restart it from the same checkpoint, and require
//! every client to reconnect and resume — zero panics, every answer
//! bit-exact, no torn checkpoint reads.

mod common;

use common::{observations, small_config, temp_file, trained_agent};
use ctjam_dqn::checkpoint;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_serve::client::{ClientError, PolicyClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A running `policy_server` child process plus its resolved address.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

/// Reads stdout lines up to and including `LISTENING <addr>`; the
/// binary reports its `WORKERS` count first.
fn read_until_listening(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> SocketAddr {
    loop {
        let line = lines
            .next()
            .expect("readiness line")
            .expect("readable stdout");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            return addr.parse().expect("parsable address");
        }
        assert!(
            line.starts_with("WORKERS "),
            "unexpected readiness line: {line}"
        );
    }
}

impl ServerProcess {
    /// Spawns the binary on an ephemeral loopback port and waits for
    /// its `LISTENING <addr>` readiness line.
    fn spawn(checkpoint: &std::path::Path) -> ServerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_policy_server"))
            .arg(checkpoint)
            .arg("127.0.0.1:0")
            .stdin(Stdio::piped()) // held open: EOF means shutdown
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn policy_server");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = read_until_listening(&mut lines);
        // Keep draining stdout so the child never blocks on a full pipe.
        thread::spawn(move || for _ in lines {});
        ServerProcess { child, addr }
    }

    /// SIGKILL — no drain, no goodbye, exactly what a crash looks like.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }
}

#[test]
fn kill9_midload_then_restart_clients_reconnect_bit_exact() {
    let config = small_config();
    let agent = trained_agent(&config, 60);
    let ckpt = temp_file("chaos");
    checkpoint::save_agent(&agent, &ckpt).expect("save checkpoint");
    // The oracle reads the same checkpoint the servers serve — also
    // proving the file survives the SIGKILL un-torn.
    let oracle = Arc::new(GreedyPolicy::load_checkpoint(&ckpt).expect("load oracle"));

    let first = ServerProcess::spawn(&ckpt);
    let addr = Arc::new(Mutex::new(first.addr));
    let stop = Arc::new(AtomicBool::new(false));

    let mut clients = Vec::new();
    for t in 0..4u64 {
        let addr = Arc::clone(&addr);
        let stop = Arc::clone(&stop);
        let oracle = Arc::clone(&oracle);
        let config = config.clone();
        clients.push(thread::spawn(move || {
            let obs = observations(&config, 16, t);
            let mut successes_after_failure = 0u64;
            let mut saw_failure = false;
            while !stop.load(Ordering::Relaxed) {
                // (Re)connect to wherever the server currently lives.
                let target = *addr.lock().expect("addr lock");
                let mut client =
                    match PolicyClient::connect_retry(target, 5, Duration::from_millis(20)) {
                        Ok(c) => c,
                        Err(_) => {
                            saw_failure = true;
                            continue; // server down — keep retrying
                        }
                    };
                for o in obs.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match client.act(o) {
                        Ok(served) => {
                            assert_eq!(
                                served as usize,
                                oracle.act_greedy(o),
                                "answer diverged from the checkpoint policy"
                            );
                            if saw_failure {
                                successes_after_failure += 1;
                            }
                        }
                        Err(ClientError::Io(_)) | Err(ClientError::Closed) => {
                            saw_failure = true;
                            break; // reconnect
                        }
                        Err(other) => panic!("unexpected client failure: {other}"),
                    }
                }
            }
            (saw_failure, successes_after_failure)
        }));
    }

    // Let the load build, then crash the server out from under it.
    thread::sleep(Duration::from_millis(300));
    first.kill9();
    thread::sleep(Duration::from_millis(200));

    // Restart from the same checkpoint (new ephemeral port) and point
    // the clients at it.
    let second = ServerProcess::spawn(&ckpt);
    *addr.lock().expect("addr lock") = second.addr;

    // Every client must get answers flowing again.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut probe = loop {
        match PolicyClient::connect_retry(second.addr, 10, Duration::from_millis(50)) {
            Ok(c) => break c,
            Err(e) => assert!(
                Instant::now() < deadline,
                "restarted server unreachable: {e}"
            ),
        }
    };
    probe.ping().expect("restarted server answers");
    thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);

    let mut reconnected = 0;
    for c in clients {
        // `join` erroring here would mean a client panicked — the one
        // outcome this test exists to forbid.
        let (saw_failure, successes) = c.join().expect("client thread panicked");
        assert!(saw_failure, "client never observed the crash");
        if successes > 0 {
            reconnected += 1;
        }
    }
    assert_eq!(reconnected, 4, "not every client resumed after restart");
    second.kill9();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn stdin_eof_shuts_the_binary_down_gracefully() {
    let config = small_config();
    let agent = trained_agent(&config, 61);
    let ckpt = temp_file("graceful_bin");
    checkpoint::save_agent(&agent, &ckpt).expect("save checkpoint");

    let mut child = Command::new(env!("CARGO_BIN_EXE_policy_server"))
        .arg(&ckpt)
        .arg("127.0.0.1:0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn policy_server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = read_until_listening(&mut lines);

    let mut client = PolicyClient::connect(addr).expect("connect");
    let obs = vec![0.25; config.input_size()];
    assert_eq!(
        client.act(&obs).expect("act") as usize,
        agent.act_greedy(&obs)
    );

    drop(child.stdin.take()); // EOF → graceful shutdown
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().expect("reap");
    assert!(status.success(), "exit status {status:?}");
    assert!(
        rest.iter().any(|l| l.starts_with("METRICS ")),
        "no metrics line in {rest:?}"
    );
    assert!(
        rest.iter().any(|l| l == "SHUTDOWN_OK"),
        "no SHUTDOWN_OK in {rest:?}"
    );
    std::fs::remove_file(&ckpt).ok();
}

/// Graceful drain through the binary with two workers and two tenants
/// under live load: every in-flight request is either answered
/// bit-exactly by its own tenant's policy or refused with a typed
/// shutdown signal — never dropped silently — and the process exits
/// cleanly with its final metrics.
#[test]
fn multi_tenant_drain_under_load_drops_nothing() {
    let config = small_config();
    let agent_a = Arc::new(trained_agent(&config, 62));
    let agent_b = Arc::new(trained_agent(&config, 63));
    let ckpt_a = temp_file("drain_a");
    let ckpt_b = temp_file("drain_b");
    checkpoint::save_agent(&agent_a, &ckpt_a).expect("save a");
    checkpoint::save_agent(&agent_b, &ckpt_b).expect("save b");

    let mut child = Command::new(env!("CARGO_BIN_EXE_policy_server"))
        .arg(&ckpt_a)
        .arg("127.0.0.1:0")
        .env("CTJAM_SERVE_WORKERS", "2")
        .env("CTJAM_SERVE_TENANTS", format!("7={}", ckpt_b.display()))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn policy_server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = read_until_listening(&mut lines);

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..4u64 {
        let (agent, tenant) = if t % 2 == 0 {
            (Arc::clone(&agent_a), 0u32)
        } else {
            (Arc::clone(&agent_b), 7u32)
        };
        let stop = Arc::clone(&stop);
        let config = config.clone();
        clients.push(thread::spawn(move || {
            let mut client = PolicyClient::connect_tenant(addr, tenant).expect("connect");
            let obs = observations(&config, 16, 600 + t);
            let mut answered = 0u64;
            for o in obs.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match client.act(o) {
                    Ok(served) => {
                        assert_eq!(
                            served as usize,
                            agent.act_greedy(o),
                            "tenant {tenant} answer diverged during drain"
                        );
                        answered += 1;
                    }
                    // The drain races us: typed refusal or a closed
                    // socket end the run; silent wrong answers and
                    // panics are the failures this test exists for.
                    Err(ClientError::Rejected(_))
                    | Err(ClientError::Closed)
                    | Err(ClientError::Io(_)) => break,
                    Err(other) => panic!("unexpected client failure: {other}"),
                }
            }
            answered
        }));
    }

    // Load flows, then the orchestrator closes stdin mid-flight.
    thread::sleep(Duration::from_millis(300));
    drop(child.stdin.take());
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().expect("reap");
    stop.store(true, Ordering::Relaxed);
    let mut total = 0u64;
    for c in clients {
        total += c.join().expect("client thread panicked");
    }
    assert!(total > 0, "no requests answered before the drain");
    assert!(status.success(), "exit status {status:?}");
    assert!(
        rest.iter().any(|l| l == "SHUTDOWN_OK"),
        "no SHUTDOWN_OK in {rest:?}"
    );
    // The final snapshot carries both tenants' accounting.
    let metrics = rest
        .iter()
        .find(|l| l.starts_with("METRICS "))
        .expect("metrics line");
    assert!(
        metrics.contains("\"tenants\"") && metrics.contains("\"7\""),
        "final metrics miss tenant accounting: {metrics}"
    );
    std::fs::remove_file(&ckpt_a).ok();
    std::fs::remove_file(&ckpt_b).ok();
}
