//! Property-based tests for the channel models.

use ctjam_channel::ber::oqpsk_dsss_ber;
use ctjam_channel::interference::{InterferenceKind, Interferer};
use ctjam_channel::link::{JammerKind, JammingScenario};
use ctjam_channel::noise::NoiseFloor;
use ctjam_channel::pathloss::PathLoss;
use ctjam_channel::per::{goodput_bps, packet_error_rate};
use ctjam_channel::sinr::sinr_linear;
use ctjam_channel::units::{db_to_linear, dbm_to_mw, linear_to_db, mw_to_dbm};
use proptest::prelude::*;

proptest! {
    #[test]
    fn unit_roundtrips(dbm in -120.0f64..40.0) {
        prop_assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        prop_assert!((linear_to_db(db_to_linear(dbm)) - dbm).abs() < 1e-9);
    }

    #[test]
    fn pathloss_monotone(d1 in 0.5f64..50.0, d2 in 0.5f64..50.0, n in 1.5f64..4.5) {
        let pl = PathLoss::new(40.0, n, 0.0);
        if d1 < d2 {
            prop_assert!(pl.loss_db(d1) <= pl.loss_db(d2));
        } else {
            prop_assert!(pl.loss_db(d2) <= pl.loss_db(d1));
        }
    }

    #[test]
    fn ber_in_valid_range(sinr_db_val in -40.0f64..40.0) {
        let ber = oqpsk_dsss_ber(db_to_linear(sinr_db_val));
        prop_assert!((0.0..=0.5).contains(&ber));
    }

    #[test]
    fn per_in_unit_interval(ber in 0.0f64..0.5, len in 1usize..128) {
        let per = packet_error_rate(ber, len);
        prop_assert!((0.0..=1.0).contains(&per));
        prop_assert!(goodput_bps(per, len) >= 0.0);
    }

    #[test]
    fn sinr_decreases_with_more_interference(
        signal in -90.0f64..-40.0,
        i1 in -90.0f64..-40.0,
        i2 in -90.0f64..-40.0,
    ) {
        let noise = NoiseFloor::zigbee();
        let a = [Interferer { kind: InterferenceKind::EmuBee, received_dbm: i1 }];
        let b = [
            Interferer { kind: InterferenceKind::EmuBee, received_dbm: i1 },
            Interferer { kind: InterferenceKind::EmuBee, received_dbm: i2 },
        ];
        prop_assert!(sinr_linear(signal, &b, &noise) < sinr_linear(signal, &a, &noise));
    }

    #[test]
    fn jamming_order_holds_everywhere(d in 1.0f64..20.0, link_d in 1.0f64..6.0) {
        let scenario = JammingScenario {
            link_distance_m: link_d,
            ..JammingScenario::default()
        };
        let e = scenario.evaluate(JammerKind::EmuBee, d).per;
        let z = scenario.evaluate(JammerKind::ZigBee, d).per;
        let w = scenario.evaluate(JammerKind::WifiOfdm, d).per;
        prop_assert!(e >= z - 1e-9);
        prop_assert!(z >= w - 1e-9);
    }

    #[test]
    fn stronger_jammer_never_helps(
        p1 in -10.0f64..10.0,
        p2 in 10.0f64..30.0,
        d in 1.0f64..15.0,
    ) {
        let s = JammingScenario::default();
        let weak = s.evaluate_with_power(JammerKind::EmuBee, p1, d);
        let strong = s.evaluate_with_power(JammerKind::EmuBee, p2, d);
        prop_assert!(strong.per >= weak.per - 1e-12);
        prop_assert!(strong.goodput_bps <= weak.goodput_bps + 1e-9);
    }
}
