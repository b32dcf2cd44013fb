//! Hot-reload semantics: corrupt or incompatible checkpoints are
//! rejected while the old policy keeps serving; a validated swap never
//! drops a connection; and under concurrent reloads every answer is
//! consistent with exactly one of the two policies (no torn reads).

mod common;

use common::{observations, small_config, temp_file, trained_agent};
use ctjam_dqn::agent::DqnAgent;
use ctjam_dqn::checkpoint::{self, CheckpointError};
use ctjam_dqn::config::DqnConfig;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_serve::client::PolicyClient;
use ctjam_serve::server::{PolicyServer, ReloadError, ServerConfig};
use ctjam_telemetry::JsonValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant, SystemTime};

/// Like `common::trained_agent` but with a chosen number of replay
/// transitions — fewer transitions make a *shorter* checkpoint, which
/// the `(mtime, len)` watcher-signature tests rely on.
fn agent_with_replay(config: &DqnConfig, seed: u64, transitions: usize) -> DqnAgent {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = DqnAgent::new(config.clone(), &mut rng);
    for i in 0..transitions {
        let mut state = vec![0.0; config.input_size()];
        state[i % config.input_size()] = ((i as f64) + seed as f64).sin();
        let next = state.clone();
        agent.observe(state, i % config.num_actions(), -1.0, next, &mut rng);
    }
    agent
}

/// Forces `path`'s mtime to `when` (needs write access to the file).
fn force_mtime(path: &std::path::Path, when: SystemTime) {
    std::fs::File::options()
        .write(true)
        .open(path)
        .expect("open for retime")
        .set_modified(when)
        .expect("set mtime");
}

fn mtime(path: &std::path::Path) -> SystemTime {
    std::fs::metadata(path)
        .expect("stat")
        .modified()
        .expect("mtime")
}

#[test]
fn shape_mismatch_is_rejected_and_old_policy_keeps_serving() {
    let config = small_config();
    let agent = trained_agent(&config, 50);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig::default(),
    )
    .expect("bind");

    // A checkpoint with twice the channels: num_actions differs.
    let wide_config = DqnConfig {
        num_channels: config.num_channels * 2,
        ..config.clone()
    };
    let wide_agent = trained_agent(&wide_config, 51);
    let path = temp_file("shape_mismatch");
    checkpoint::save_agent(&wide_agent, &path).expect("save");

    match server.reload_from(&path) {
        Err(ReloadError::ShapeMismatch { expected, found }) => {
            assert_eq!(expected.1, config.num_actions());
            assert_eq!(found.1, wide_config.num_actions());
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();

    // Still the original policy, bit-exactly.
    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");
    for obs in observations(&config, 10, 0) {
        assert_eq!(
            client.act(&obs).expect("act") as usize,
            agent.act_greedy(&obs)
        );
    }
    server.shutdown();
}

#[test]
fn corrupted_checksum_is_rejected_and_old_policy_keeps_serving() {
    let config = small_config();
    let agent = trained_agent(&config, 52);
    let other_agent = trained_agent(&config, 53);
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent),
        ServerConfig::default(),
    )
    .expect("bind");

    let path = temp_file("corrupt");
    checkpoint::save_agent(&other_agent, &path).expect("save");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted checkpoint");

    match server.reload_from(&path) {
        Err(ReloadError::Checkpoint(CheckpointError::ChecksumMismatch)) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();

    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");
    for obs in observations(&config, 10, 1) {
        assert_eq!(
            client.act(&obs).expect("act") as usize,
            agent.act_greedy(&obs)
        );
    }
    server.shutdown();
}

#[test]
fn reload_under_load_answers_from_exactly_one_policy() {
    let config = small_config();
    let agent_a = trained_agent(&config, 54);
    let agent_b = trained_agent(&config, 55);
    let path_a = temp_file("policy_a");
    let path_b = temp_file("policy_b");
    checkpoint::save_agent(&agent_a, &path_a).expect("save a");
    checkpoint::save_agent(&agent_b, &path_b).expect("save b");

    // Observations where the two policies disagree — only those give
    // the torn-read check any power.
    let disagreeing: Vec<Vec<f64>> = observations(&config, 400, 2)
        .into_iter()
        .filter(|o| agent_a.act_greedy(o) != agent_b.act_greedy(o))
        .take(40)
        .collect();
    assert!(
        disagreeing.len() >= 8,
        "seeds 54/55 agree almost everywhere; pick new seeds"
    );

    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let agent_a = Arc::new(agent_a);
    let agent_b = Arc::new(agent_b);
    let disagreeing = Arc::new(disagreeing);
    let mut workers = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        let agent_a = Arc::clone(&agent_a);
        let agent_b = Arc::clone(&agent_b);
        let obs = Arc::clone(&disagreeing);
        workers.push(thread::spawn(move || {
            let mut client = PolicyClient::connect(addr).expect("connect");
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for o in obs.iter() {
                    let served = client.act(o).expect("act under reload") as usize;
                    let from_a = agent_a.act_greedy(o);
                    let from_b = agent_b.act_greedy(o);
                    assert!(
                        served == from_a || served == from_b,
                        "torn answer {served}; policy A says {from_a}, policy B says {from_b}"
                    );
                    answered += 1;
                }
            }
            answered
        }));
    }

    // Flip between the two checkpoints as fast as the validation allows.
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut flips = 0u32;
    while Instant::now() < deadline {
        let path = if flips.is_multiple_of(2) {
            &path_b
        } else {
            &path_a
        };
        server.reload_from(path).expect("valid reload");
        flips += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for w in workers {
        total += w.join().expect("client thread panicked");
    }
    assert!(flips >= 2, "reload loop never flipped");
    assert!(total > 0, "clients never got an answer in");
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    server.shutdown();
}

#[test]
fn a_reload_resets_the_decision_memo() {
    let config = small_config();
    let agent_a = trained_agent(&config, 58);
    let agent_b = trained_agent(&config, 59);
    let obs: Vec<f64> = observations(&config, 200, 4)
        .into_iter()
        .find(|o| agent_a.act_greedy(o) != agent_b.act_greedy(o))
        .expect("seeds 58/59 disagree somewhere");
    let path_a = temp_file("memo_a");
    let path_b = temp_file("memo_b");
    checkpoint::save_agent(&agent_a, &path_a).expect("save a");
    checkpoint::save_agent(&agent_b, &path_b).expect("save b");
    let server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::from_agent(&agent_a),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");

    // One connection, one shard, one request per flush: under each
    // policy the first ask fills the memo and the next three hit it.
    let mut ask = |agent: &DqnAgent, phase: &str| {
        for i in 0..4 {
            let served = client.act(&obs).expect("act") as usize;
            assert_eq!(served, agent.act_greedy(&obs), "{phase}, ask {i}");
        }
    };
    ask(&agent_a, "first A");
    server.reload_from(&path_b).expect("reload b");
    ask(&agent_b, "after the reload to B");
    server.reload_from(&path_a).expect("reload a");
    ask(&agent_a, "after the reload back to A");

    let metrics = server.shutdown();
    let counters = metrics.get("counters").expect("counters");
    assert_eq!(counters.get("memo_hits"), Some(&JsonValue::Num(9.0)));
    assert_eq!(counters.get("memo_misses"), Some(&JsonValue::Num(3.0)));
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

#[test]
fn watcher_swaps_policies_without_dropping_the_connection() {
    let config = small_config();
    let agent_a = trained_agent(&config, 56);
    let agent_b = trained_agent(&config, 57);
    let obs: Vec<f64> = observations(&config, 200, 3)
        .into_iter()
        .find(|o| agent_a.act_greedy(o) != agent_b.act_greedy(o))
        .expect("seeds 56/57 disagree somewhere");

    let path = temp_file("watched");
    checkpoint::save_agent(&agent_a, &path).expect("save a");
    let mut server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::load_checkpoint(&path).expect("load"),
        ServerConfig {
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server.watch_checkpoint(path.clone());

    // ONE connection across the swap: it must observe the new policy
    // without ever reconnecting.
    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client.act(&obs).expect("act before swap") as usize,
        agent_a.act_greedy(&obs)
    );

    // Atomic overwrite (tempfile + rename inside save_agent); make the
    // mtime unmistakably newer for coarse-grained filesystems.
    thread::sleep(Duration::from_millis(20));
    checkpoint::save_agent(&agent_b, &path).expect("save b");

    let expected = agent_b.act_greedy(&obs);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = client.act(&obs).expect("act across swap") as usize;
        if served == expected {
            break;
        }
        assert_eq!(
            served,
            agent_a.act_greedy(&obs),
            "answer from neither policy"
        );
        assert!(
            Instant::now() < deadline,
            "watcher never applied the new checkpoint"
        );
        thread::sleep(Duration::from_millis(10));
    }
    std::fs::remove_file(&path).ok();
    server.shutdown();
}

/// Regression: the watcher must commit its change signature only after
/// a *successful* reload. The old code updated `last_seen` first, so a
/// transiently failing file was never retried until its mtime moved
/// again — here the repaired checkpoint is pinned to the failing
/// write's exact mtime, which the old watcher would ignore forever.
#[test]
fn watcher_retries_a_failed_reload_next_poll() {
    let config = small_config();
    let agent_a = trained_agent(&config, 58);
    let agent_b = trained_agent(&config, 59);
    let obs: Vec<f64> = observations(&config, 200, 4)
        .into_iter()
        .find(|o| agent_a.act_greedy(o) != agent_b.act_greedy(o))
        .expect("seeds 58/59 disagree somewhere");

    let path = temp_file("retry");
    checkpoint::save_agent(&agent_a, &path).expect("save a");
    let mut server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::load_checkpoint(&path).expect("load"),
        ServerConfig {
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server.watch_checkpoint(path.clone());
    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client.act(&obs).expect("act before failure") as usize,
        agent_a.act_greedy(&obs)
    );

    // A bad publish: the watcher sees a new signature, tries to
    // reload, and is rejected. Give it a few polls to hit the file.
    thread::sleep(Duration::from_millis(20));
    std::fs::write(&path, b"this is not a checkpoint").expect("write garbage");
    thread::sleep(Duration::from_millis(60));
    assert_eq!(
        client.act(&obs).expect("act after failed reload") as usize,
        agent_a.act_greedy(&obs),
        "a rejected reload must leave the old policy serving"
    );
    let failed_mtime = mtime(&path);

    // Repair the file, pinning the failing write's exact mtime: the
    // replacement is retimed *before* the rename (which preserves
    // mtime), so the watcher can only ever observe the pinned
    // signature. With mtime-only tracking committed before the
    // reload, this repair is invisible; the (mtime, len) signature
    // committed only on success picks it up on the next poll.
    let side = temp_file("retry_side");
    checkpoint::save_agent(&agent_b, &side).expect("save b");
    force_mtime(&side, failed_mtime);
    std::fs::rename(&side, &path).expect("publish repair");

    let expected = agent_b.act_greedy(&obs);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = client.act(&obs).expect("act across retry") as usize;
        if served == expected {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never retried the failed reload"
        );
        thread::sleep(Duration::from_millis(10));
    }
    std::fs::remove_file(&path).ok();
    server.shutdown();
}

/// Regression: a republish landing in the same filesystem-timestamp
/// granule as the previous one must still be applied when the file
/// length changes — the watcher keys on `(mtime, len)`, not mtime
/// alone. The two checkpoints differ in replay fill, so their lengths
/// differ while their shapes (and thus reload validity) match.
#[test]
fn watcher_catches_a_same_mtime_republish() {
    let config = small_config();
    let agent_short = agent_with_replay(&config, 60, 8);
    let agent_long = agent_with_replay(&config, 61, 64);
    let obs: Vec<f64> = observations(&config, 200, 5)
        .into_iter()
        .find(|o| agent_short.act_greedy(o) != agent_long.act_greedy(o))
        .expect("seeds 60/61 disagree somewhere");

    let path = temp_file("same_mtime");
    checkpoint::save_agent(&agent_short, &path).expect("save short");
    let first_len = std::fs::metadata(&path).expect("stat").len();
    let first_mtime = mtime(&path);

    // A slow poll gives the republish below time to land inside the
    // watcher's very first sleep, so the only signature it ever
    // compares against is the pinned-mtime one.
    let mut server = PolicyServer::bind(
        "127.0.0.1:0",
        GreedyPolicy::load_checkpoint(&path).expect("load"),
        ServerConfig {
            poll_interval: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server.watch_checkpoint(path.clone());

    // Let the watcher take its baseline signature (it does so at
    // spawn, well within the first 100 ms sleep), then republish and
    // pin the mtime back to the first publish's — the worst case a
    // coarse-timestamp filesystem can produce for two back-to-back
    // publishes.
    thread::sleep(Duration::from_millis(30));
    checkpoint::save_agent(&agent_long, &path).expect("save long");
    force_mtime(&path, first_mtime);
    let second_len = std::fs::metadata(&path).expect("stat").len();
    assert_ne!(
        first_len, second_len,
        "fixture lost its power: both checkpoints have the same length"
    );
    assert_eq!(mtime(&path), first_mtime, "mtime pin did not take");

    let mut client = PolicyClient::connect(server.local_addr()).expect("connect");
    let expected = agent_long.act_greedy(&obs);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = client.act(&obs).expect("act across republish") as usize;
        if served == expected {
            break;
        }
        assert_eq!(
            served,
            agent_short.act_greedy(&obs),
            "answer from neither policy"
        );
        assert!(
            Instant::now() < deadline,
            "watcher swallowed the same-mtime republish"
        );
        thread::sleep(Duration::from_millis(20));
    }
    std::fs::remove_file(&path).ok();
    server.shutdown();
}
