//! Smart-warehouse scenario: the paper's motivating deployment.
//!
//! A dense heterogeneous IoT floor — a ZigBee hub with sensor nodes —
//! shares 2.4 GHz spectrum with Wi-Fi equipment; one Wi-Fi device turns
//! hostile and runs the EmuBee sweep jammer. The warehouse operator
//! deploys the trained DQN defense and watches goodput recover.
//!
//! ```text
//! cargo run --release --example smart_warehouse
//! ```

use ctjam::core::defender::{Defender, DqnDefender, NoDefense, PassiveFh};
use ctjam::core::field::{FieldConfig, FieldEnv, GoodputMeter};
use ctjam::core::runner::RunBuilder;
use ctjam::net::negotiation::mean_negotiation_s;
use ctjam::net::timing::TimingModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;

/// Runs `defender` for `slots` Tx slots of a fresh field experiment and
/// returns the packets the floor delivered.
fn run_field<D: Defender>(
    config: &FieldConfig,
    mut defender: D,
    slots: usize,
    rng: &mut StdRng,
) -> GoodputMeter {
    let mut env = FieldEnv::new(config.clone(), rng);
    RunBuilder::new(&config.env).run_in(&mut env, &mut defender, slots, rng);
    env.goodput()
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let slots = 200;
    let base = FieldConfig {
        num_peripherals: 6, // a denser floor than the paper's 3-node cell
        ..FieldConfig::default()
    };

    println!("== Phase 0: normal operation (no jammer) ==");
    let quiet = FieldConfig {
        jammer_enabled: false,
        ..base.clone()
    };
    let healthy = run_field(
        &quiet,
        NoDefense::new(&quiet.env, &mut rng),
        slots,
        &mut rng,
    );
    println!(
        "goodput {:.0} pkts/slot, slot utilization {:.1}%",
        healthy.packets_per_slot(),
        100.0 * healthy.utilization()
    );

    println!("\n== Phase 1: the EmuBee jammer appears ==");
    let attacked = run_field(&base, NoDefense::new(&base.env, &mut rng), slots, &mut rng);
    println!(
        "goodput collapses to {:.0} pkts/slot ({:.1}% of normal) — the static network is pinned",
        attacked.packets_per_slot(),
        100.0 * attacked.packets_per_slot() / healthy.packets_per_slot()
    );

    println!("\n== Phase 2: ops enables the firmware's passive channel hopping ==");
    let passive = run_field(&base, PassiveFh::new(&base.env, &mut rng), slots, &mut rng);
    println!(
        "goodput {:.0} pkts/slot ({:.1}% of normal) — better, but the stealthy jammer is detected late",
        passive.packets_per_slot(),
        100.0 * passive.packets_per_slot() / healthy.packets_per_slot()
    );

    println!("\n== Phase 3: deploy the trained DQN defense on the hub ==");
    let mut defense = DqnDefender::paper_default(&base.env, &mut rng);
    RunBuilder::new(&base.env).train(&mut defense, 12_000, &mut rng);
    defense.set_training(false);
    println!(
        "trained network: {} parameters, {:.1} KB deployed (paper: 10 664 / 42.7 KB)",
        defense.agent().network().param_count(),
        ctjam::nn::serialize::deployed_kb(defense.agent().network())
    );
    let defended = run_field(&base, defense, slots, &mut rng);
    println!(
        "goodput {:.0} pkts/slot ({:.1}% of normal) — {:.1}x the passive scheme",
        defended.packets_per_slot(),
        100.0 * defended.packets_per_slot() / healthy.packets_per_slot(),
        defended.packets_per_slot() / passive.packets_per_slot()
    );

    println!("\n== Capacity planning: how big can the floor grow? ==");
    // Fig. 9(b) guidance: FH negotiation scales with node count and must
    // fit inside the slot.
    let timing = TimingModel::default();
    println!("{:<8} {:>22}", "nodes", "mean negotiation (s)");
    for nodes in [3usize, 6, 10, 16, 24] {
        let mean = mean_negotiation_s(&timing, nodes, 300, &mut rng);
        println!("{:<8} {:>22.3}", nodes, mean);
    }
    println!("\nrule of thumb: keep negotiation below ~10% of the Tx slot when sizing the cell");

    assert!(defended.packets_per_slot() > passive.packets_per_slot());
    assert!(passive.packets_per_slot() > attacked.packets_per_slot());
    Ok(())
}
