//! Online model maintenance.
//!
//! The paper trains offline and deploys; in a real fleet the record stream
//! never stops, and the plant drifts — servers age (thermal paste dries,
//! filters clog), firmware changes fan curves, seasons move the room
//! envelope. [`OnlineTrainer`] keeps a sliding window of the freshest
//! records and retrains the stable model periodically, so the deployed
//! predictor tracks the *current* plant rather than the one profiled at
//! install time.

use crate::error::PredictError;
use crate::stable::{StablePredictor, TrainingOptions};
use std::collections::VecDeque;
use vmtherm_sim::experiment::ExperimentOutcome;

/// Sliding-window retraining policy.
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    window: VecDeque<ExperimentOutcome>,
    capacity: usize,
    retrain_every: usize,
    since_retrain: usize,
    options: TrainingOptions,
    model: Option<StablePredictor>,
    retrain_count: usize,
}

impl OnlineTrainer {
    /// Creates a trainer keeping the freshest `capacity` records and
    /// retraining after every `retrain_every` new records (once the
    /// window holds at least `retrain_every` records).
    ///
    /// # Panics
    ///
    /// Panics on zero capacity or zero retrain interval.
    #[must_use]
    pub fn new(capacity: usize, retrain_every: usize, options: TrainingOptions) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(retrain_every > 0, "retrain interval must be positive");
        OnlineTrainer {
            window: VecDeque::with_capacity(capacity),
            capacity,
            retrain_every,
            since_retrain: 0,
            options,
            model: None,
            retrain_count: 0,
        }
    }

    /// Ingests one record; retrains when the policy says so. Returns
    /// `Ok(true)` when a retrain happened.
    ///
    /// # Errors
    ///
    /// Propagates training errors; the previous model stays deployed.
    pub fn push(&mut self, outcome: ExperimentOutcome) -> Result<bool, PredictError> {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(outcome);
        self.since_retrain += 1;
        let due = self.since_retrain >= self.retrain_every
            && (self.model.is_some() || self.window.len() >= self.retrain_every);
        if !due {
            return Ok(false);
        }
        let records: Vec<ExperimentOutcome> = self.window.iter().cloned().collect();
        let model = StablePredictor::fit(&records, &self.options)?;
        self.model = Some(model);
        self.since_retrain = 0;
        self.retrain_count += 1;
        Ok(true)
    }

    /// The currently deployed model, if one has been trained.
    #[must_use]
    pub fn model(&self) -> Option<&StablePredictor> {
        self.model.as_ref()
    }

    /// How many times the model has been retrained.
    #[must_use]
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::run_experiments;
    use vmtherm_sim::experiment::ExperimentConfig;
    use vmtherm_sim::server::ServerSpec;
    use vmtherm_sim::thermal::ThermalParams;
    use vmtherm_sim::vm::VmSpec;
    use vmtherm_sim::workload::TaskProfile;
    use vmtherm_sim::{CaseGenerator, SimDuration};
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_svm::svr::SvrParams;
    use vmtherm_units::Celsius;

    fn options() -> TrainingOptions {
        TrainingOptions::new().with_params(
            SvrParams::new()
                .with_c(128.0)
                .with_epsilon(0.05)
                .with_kernel(Kernel::rbf(0.02)),
        )
    }

    fn fresh_outcomes(n: usize, seed: u64) -> Vec<ExperimentOutcome> {
        let mut generator = CaseGenerator::new(seed);
        let configs: Vec<_> = generator
            .random_cases(n, seed * 17)
            .into_iter()
            .map(|c| c.with_duration(SimDuration::from_secs(900)))
            .collect();
        run_experiments(&configs)
    }

    /// Outcomes from an "aged" plant: higher die→sink resistance (dried
    /// paste) makes the same configurations run hotter.
    fn aged_outcome(i: u64) -> ExperimentOutcome {
        let aged = ThermalParams::new(150.0, 1100.0, 0.12);
        let server = ServerSpec::commodity("aged", 16, 2.4, 64.0, 4).with_thermal(aged);
        let vms = (0..4)
            .map(|k| VmSpec::new(format!("v{k}"), 2, 4.0, TaskProfile::CpuBound))
            .collect();
        ExperimentConfig::new(server, vms, Celsius::new(24.0), i)
            .with_duration(SimDuration::from_secs(900))
            .run()
    }

    #[test]
    fn trains_after_enough_records_and_windows_slide() {
        let mut trainer = OnlineTrainer::new(30, 10, options());
        let records = fresh_outcomes(25, 3);
        let mut retrains = 0;
        for r in records {
            if trainer.push(r).unwrap() {
                retrains += 1;
            }
        }
        assert_eq!(retrains, 2, "expected retrains at 10 and 20 records");
        assert!(trainer.model().is_some());
        assert_eq!(trainer.window.len(), 25);
        assert_eq!(trainer.retrain_count(), 2);
    }

    #[test]
    fn window_capacity_evicts_oldest() {
        let mut trainer = OnlineTrainer::new(5, 100, options());
        for r in fresh_outcomes(8, 4) {
            let _ = trainer.push(r).unwrap();
        }
        assert_eq!(trainer.window.len(), 5);
    }

    #[test]
    fn adapts_to_plant_drift() {
        // Train on healthy records; the aged plant runs hotter, so the
        // stale model under-predicts. After the window fills with aged
        // records and retrains, the error collapses.
        let mut trainer = OnlineTrainer::new(40, 20, options());
        for r in fresh_outcomes(40, 5) {
            let _ = trainer.push(r).unwrap();
        }
        let probe = aged_outcome(999);
        let stale_err =
            (trainer.model().unwrap().predict(&probe.snapshot) - probe.psi_stable).abs();

        for i in 0..40 {
            let _ = trainer.push(aged_outcome(i)).unwrap();
        }
        let fresh_err =
            (trainer.model().unwrap().predict(&probe.snapshot) - probe.psi_stable).abs();
        assert!(
            fresh_err < stale_err,
            "no adaptation: stale {stale_err} vs fresh {fresh_err}"
        );
        assert!(fresh_err < 1.5, "fresh error {fresh_err} still large");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = OnlineTrainer::new(0, 1, options());
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        let _ = OnlineTrainer::new(1, 0, options());
    }
}
