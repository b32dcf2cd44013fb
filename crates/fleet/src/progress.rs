//! Resumable campaign progress: the checkpointed prefix of a campaign.

use crate::engine::EpisodeOutcome;
use crate::spec::CampaignSpec;
use ctjam_core::metrics::Metrics;
use ctjam_dqn::checkpoint::{self, CheckpointError};
use ctjam_telemetry::{RunHealth, ShardSink};
use std::path::Path;

/// Completed-episode state captured mid-campaign by
/// [`crate::Fleet::run_partial`], consumable by [`crate::Fleet::resume`].
///
/// Carries the merged telemetry alongside the outcomes because the
/// histograms are not reconstructible from per-episode summaries — the
/// resumed run merges fresh shard telemetry into this checkpointed
/// aggregate, and partition invariance makes the combined result
/// bit-exact with an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignProgress {
    /// Fingerprint of the spec that produced this progress
    /// ([`crate::CampaignSpec::fingerprint`]).
    pub fingerprint: u64,
    /// Outcomes of the episodes already completed.
    pub outcomes: Vec<EpisodeOutcome>,
    /// Merged telemetry of the completed episodes.
    pub telemetry: ShardSink,
}

impl CampaignProgress {
    /// Checks that this progress can resume `spec`: it carries the
    /// spec's fingerprint, and every outcome names an episode of the
    /// spec's grid, at most once, with that episode's seed
    /// ([`CampaignSpec::episode_seed`]). `Err` says what is wrong.
    pub fn check(&self, spec: &CampaignSpec) -> Result<(), String> {
        if self.fingerprint != spec.fingerprint() {
            return Err(format!(
                "checkpointed spec fingerprint {:016x} != {:016x}",
                self.fingerprint,
                spec.fingerprint()
            ));
        }
        let mut seen = vec![false; spec.episodes()];
        for o in &self.outcomes {
            let e = o.episode;
            let i = usize::try_from(e)
                .ok()
                .filter(|&i| i < seen.len())
                .ok_or_else(|| format!("episode {e} is outside the {}-episode grid", seen.len()))?;
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("episode {e} appears more than once"));
            }
            let want = spec.episode_seed(i);
            if o.seed != want {
                return Err(format!(
                    "episode {e} carries seed {:016x}, not {want:016x}",
                    o.seed
                ));
            }
        }
        Ok(())
    }

    /// Appends the raw payload encoding (no container framing) to
    /// `payload` — the inverse of [`CampaignProgress::decode_payload`].
    /// Exposed so higher layers (the scenario campaign runner) can
    /// embed several progress records in one sealed checkpoint.
    pub fn encode_payload(&self, payload: &mut Vec<u8>) {
        payload.extend_from_slice(&self.fingerprint.to_le_bytes());
        payload.extend_from_slice(&(self.outcomes.len() as u64).to_le_bytes());
        for o in &self.outcomes {
            payload.extend_from_slice(&o.episode.to_le_bytes());
            payload.extend_from_slice(&o.seed.to_le_bytes());
            for field in o.metrics.to_array() {
                payload.extend_from_slice(&field.to_le_bytes());
            }
            payload.extend_from_slice(&o.total_reward.to_bits().to_le_bytes());
            for field in [
                o.health.sink_write_failures,
                o.health.deadline_overruns,
                o.health.skipped_train_steps,
                o.health.corrupted_replay_entries,
                o.health.faults_fired,
            ] {
                payload.extend_from_slice(&field.to_le_bytes());
            }
            payload.push(o.health.sink_demoted as u8);
        }
        self.telemetry.encode(payload);
    }

    /// Decodes one progress record from `cursor`, advancing it past the
    /// consumed bytes — the inverse of
    /// [`CampaignProgress::encode_payload`].
    pub fn decode_payload(cursor: &mut &[u8]) -> Result<Self, CheckpointError> {
        let fingerprint = checkpoint::take_u64(cursor)?;
        let count = checkpoint::take_u64(cursor)? as usize;
        if count > 1 << 32 {
            return Err(CheckpointError::Malformed);
        }
        let mut outcomes = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let episode = checkpoint::take_u64(cursor)?;
            let seed = checkpoint::take_u64(cursor)?;
            let mut fields = [0u64; 9];
            for field in fields.iter_mut() {
                *field = checkpoint::take_u64(cursor)?;
            }
            let metrics = Metrics::from_array(fields);
            let total_reward = checkpoint::take_f64(cursor)?;
            let mut health = RunHealth::clean();
            health.sink_write_failures = checkpoint::take_u64(cursor)?;
            health.deadline_overruns = checkpoint::take_u64(cursor)?;
            health.skipped_train_steps = checkpoint::take_u64(cursor)?;
            health.corrupted_replay_entries = checkpoint::take_u64(cursor)?;
            health.faults_fired = checkpoint::take_u64(cursor)?;
            health.sink_demoted = checkpoint::take_bool(cursor)?;
            outcomes.push(EpisodeOutcome {
                episode,
                seed,
                metrics,
                total_reward,
                health,
            });
        }
        let telemetry = ShardSink::decode(cursor).ok_or(CheckpointError::Malformed)?;
        Ok(CampaignProgress {
            fingerprint,
            outcomes,
            telemetry,
        })
    }

    /// Serializes the progress into the suite's standard checkpoint
    /// container (magic + version + checksum, shared with the DQN
    /// checkpoints) at `path`.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        checkpoint::write_checkpoint(path, &payload)
    }

    /// Reads progress written by [`CampaignProgress::save`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let payload = checkpoint::read_checkpoint(path)?;
        let mut cursor = payload.as_slice();
        let progress = CampaignProgress::decode_payload(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(CheckpointError::Malformed);
        }
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignPolicy, CampaignSpec};
    use crate::Fleet;
    use ctjam_core::env::EnvParams;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ctjam_fleet_progress_{tag}.ckpt"))
    }

    #[test]
    fn progress_roundtrips_through_disk() {
        let spec = CampaignSpec {
            name: "progress-unit".into(),
            points: vec![EnvParams::default()],
            seeds: vec![5, 6, 7],
            policy: CampaignPolicy::RandomFh,
            slots: 80,
            kernel: false,
            base_seed: 31337,
            faults: None,
        };
        let progress = Fleet::new().threads(2).run_partial(&spec, 2);
        let path = temp_path("roundtrip");
        progress.save(&path).expect("save");
        let loaded = CampaignProgress::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, progress);
        assert_eq!(
            loaded.telemetry.to_json().to_string_compact(),
            progress.telemetry.to_json().to_string_compact()
        );
    }

    #[test]
    fn check_rejects_foreign_repeated_out_of_grid_and_reseeded_episodes() {
        let spec = CampaignSpec {
            name: "progress-check".into(),
            points: vec![EnvParams::default()],
            seeds: vec![5, 6, 7],
            policy: CampaignPolicy::RandomFh,
            slots: 40,
            kernel: false,
            base_seed: 4242,
            faults: None,
        };
        let progress = Fleet::new().threads(1).run_partial(&spec, 2);
        assert_eq!(progress.check(&spec), Ok(()));
        let reason = |edit: &dyn Fn(&mut CampaignProgress)| {
            let mut bad = progress.clone();
            edit(&mut bad);
            bad.check(&spec).expect_err("tampered progress must fail")
        };
        assert!(reason(&|p| p.fingerprint ^= 1).contains("fingerprint"));
        assert!(reason(&|p| p.outcomes.push(p.outcomes[1])).contains("more than once"));
        assert!(reason(&|p| p.outcomes[0].episode = 3).contains("outside"));
        assert!(reason(&|p| p.outcomes[0].episode = u64::MAX).contains("outside"));
        assert!(reason(&|p| p.outcomes[1].seed ^= 1).contains("seed"));
    }

    #[test]
    fn load_rejects_a_corrupted_file() {
        let progress = CampaignProgress {
            fingerprint: 1,
            outcomes: Vec::new(),
            telemetry: ShardSink::new(),
        };
        let path = temp_path("corrupt");
        progress.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        assert!(CampaignProgress::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
