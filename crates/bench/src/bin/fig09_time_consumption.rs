//! Fig. 9: time consumption of typical functions and of FH negotiation.
//!
//! (a) samples the four measured functions 100 times each (as the paper
//! did on hardware) and prints their distribution; (b) sweeps the network
//! size 1–10 nodes and prints mean/min/max negotiation time, including
//! the multi-second control-channel outliers.

use ctjam_bench::{banner, env_usize, finish_manifest, start_manifest, table_header, table_row};
use ctjam_net::negotiation::negotiate;
use ctjam_net::timing::TimingModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stats(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}

fn main() {
    banner(
        "Fig. 9 (time consumption)",
        "DQN ~9 ms, ACK RTT ~0.9 ms, processing ~0.6 ms, polling ~13.1 ms/node; negotiation grows with network size, sometimes to seconds",
    );
    let trials = env_usize("CTJAM_TRIALS", 100);
    let rounds = env_usize("CTJAM_ROUNDS", 400);
    let timing = TimingModel::default();
    let manifest = start_manifest(
        "fig09_time_consumption",
        9,
        &format!("trials={trials}, {timing:?}"),
    );
    let mut rng = StdRng::seed_from_u64(9);

    println!("\n### Fig. 9(a): typical functions ({trials} trials each)\n");
    table_header(&[
        "function",
        "mean (ms)",
        "min (ms)",
        "max (ms)",
        "paper (ms)",
    ]);
    let mut sample = |f: &dyn Fn(&mut StdRng) -> f64| -> Vec<f64> {
        (0..trials).map(|_| f(&mut rng) * 1000.0).collect()
    };
    let rows: Vec<(&str, Vec<f64>, f64)> = vec![
        ("DQN inference", sample(&|r| timing.dqn_inference(r)), 9.0),
        ("ACK round trip", sample(&|r| timing.ack_round_trip(r)), 0.9),
        (
            "data processing",
            sample(&|r| timing.data_processing(r)),
            0.6,
        ),
        (
            "polling one node",
            sample(&|r| timing.poll_one_node(r)),
            13.1,
        ),
    ];
    for (name, samples, paper) in &rows {
        let (mean, min, max) = stats(samples);
        table_row(&[
            name.to_string(),
            format!("{mean:.2}"),
            format!("{min:.2}"),
            format!("{max:.2}"),
            format!("{paper:.1}"),
        ]);
    }

    println!("\n### Fig. 9(b): FH negotiation time vs network size\n");
    table_header(&["nodes", "mean (s)", "min (s)", "max (s)", "rounds > 1 s"]);
    for nodes in 1..=10usize {
        let samples: Vec<f64> = (0..rounds)
            .map(|_| negotiate(&timing, nodes, &mut rng).total_s)
            .collect();
        let (mean, min, max) = stats(&samples);
        let outliers = samples.iter().filter(|&&s| s > 1.0).count();
        table_row(&[
            format!("{nodes}"),
            format!("{mean:.3}"),
            format!("{min:.3}"),
            format!("{max:.3}"),
            format!("{outliers}/{rounds}"),
        ]);
    }
    println!("\npaper: 'the time consumption of negotiation increases with the increase of the number of nodes. In some cases, it can be several seconds'");
    finish_manifest(&manifest);
}
