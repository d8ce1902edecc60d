//! Stable CPU temperature prediction — the paper's first contribution.
//!
//! The pipeline is exactly §II of the paper:
//!
//! 1. run experiments, each yielding one Eq. (2) record
//!    `(θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env) → ψ_stable`;
//! 2. scale features onto `[-1, 1]` (`svm-scale`, [`Scaler::fit`]);
//! 3. grid-search SVR hyper-parameters with 10-fold cross-validation
//!    (`easygrid`): [`grid::search`] scores the paper's 126-cell RBF grid
//!    on one fold split drawn from [`TrainingOptions::seed`];
//! 4. train the final model on all records;
//! 5. deploy: encode a live configuration snapshot and predict ψ_stable.

use crate::error::PredictError;
use crate::features::FeatureEncoding;
use serde::{Deserialize, Serialize};
use vmtherm_sim::experiment::{ConfigSnapshot, ExperimentConfig, ExperimentOutcome};
use vmtherm_svm::data::Dataset;
use vmtherm_svm::grid;
use vmtherm_svm::matrix::DenseMatrix;
use vmtherm_svm::scale::Scaler;
use vmtherm_svm::svr::{SvrModel, SvrParams};

/// How the stable model is trained.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingOptions {
    /// Feature encoding for ξ_VM et al.
    pub encoding: FeatureEncoding,
    /// Fixed parameters; when `None`, grid search selects them.
    pub params: Option<SvrParams>,
    /// Cross-validation folds for grid search (paper: 10).
    pub folds: usize,
    /// Fold-shuffle seed.
    pub seed: u64,
}

impl TrainingOptions {
    /// Paper defaults: full encoding, grid-searched RBF, 10 folds.
    #[must_use]
    pub fn new() -> Self {
        TrainingOptions {
            encoding: FeatureEncoding::Full,
            params: None,
            folds: 10,
            seed: 0xA11CE,
        }
    }

    /// Uses fixed parameters instead of grid search (fast tests, ablations).
    #[must_use]
    pub fn with_params(mut self, params: SvrParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the encoding.
    #[must_use]
    pub fn with_encoding(mut self, encoding: FeatureEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Overrides the CV fold count.
    #[must_use]
    pub fn with_folds(mut self, folds: usize) -> Self {
        self.folds = folds;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TrainingOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds an Eq. (2) dataset from experiment outcomes.
#[must_use]
pub fn dataset_from_outcomes(outcomes: &[ExperimentOutcome], encoding: FeatureEncoding) -> Dataset {
    let mut ds = Dataset::new(encoding.dim());
    for o in outcomes {
        ds.push(encoding.encode(&o.snapshot), o.psi_stable);
    }
    ds
}

// The threaded campaign runner lives with the experiment protocol whose
// lockstep groups it schedules; this path keeps it beside the default.
pub use vmtherm_sim::experiment::run_experiments_threaded;

/// Runs every experiment config and collects outcomes (the paper's
/// data-collection campaign) on
/// [`available_parallelism`](std::thread::available_parallelism)
/// threads, the same default as [`grid::search`].
///
/// The result is bit-identical to
/// `configs.iter().map(ExperimentConfig::run).collect()` at every thread
/// count; see [`run_experiments_threaded`].
///
/// # Panics
///
/// Re-raises, with its original payload, the panic of any experiment
/// that panics (see [`ExperimentConfig::run`]).
#[must_use]
pub fn run_experiments(configs: &[ExperimentConfig]) -> Vec<ExperimentOutcome> {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_experiments_threaded(configs, threads)
}

/// The deployed stable-temperature model: scaler + SVR + encoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StablePredictor {
    encoding: FeatureEncoding,
    scaler: Scaler,
    model: SvrModel,
    params: SvrParams,
    cv_mse: Option<f64>,
}

impl StablePredictor {
    /// Trains from experiment outcomes.
    ///
    /// # Errors
    ///
    /// [`PredictError::NoTrainingData`] for an empty record set;
    /// SVM errors from grid search or final training.
    pub fn fit(
        outcomes: &[ExperimentOutcome],
        options: &TrainingOptions,
    ) -> Result<Self, PredictError> {
        if outcomes.is_empty() {
            return Err(PredictError::NoTrainingData);
        }
        let raw = dataset_from_outcomes(outcomes, options.encoding);
        Self::fit_dataset(raw, options)
    }

    /// Trains from an already-encoded dataset (features must match
    /// `options.encoding`).
    ///
    /// # Errors
    ///
    /// As [`StablePredictor::fit`].
    pub fn fit_dataset(raw: Dataset, options: &TrainingOptions) -> Result<Self, PredictError> {
        let _span = vmtherm_obs::span(vmtherm_obs::names::SPAN_STABLE_TRAIN);
        if raw.is_empty() {
            return Err(PredictError::NoTrainingData);
        }
        let scaler = Scaler::fit(&raw);
        let scaled = scaler.transform_dataset(&raw);

        let (params, cv_mse) = match options.params {
            Some(p) => (p, None),
            None => {
                let result = grid::search(&scaled, options.folds, options.seed)?;
                (result.best_params(), Some(result.best_mse()))
            }
        };
        let model = SvrModel::train(&scaled, params)?;
        Ok(StablePredictor {
            encoding: options.encoding,
            scaler,
            model,
            params,
            cv_mse,
        })
    }

    /// Predicts ψ_stable for a configuration.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "encoder, scaler and model are fit on the same matrix, so widths match"
    )]
    pub fn predict(&self, snapshot: &ConfigSnapshot) -> f64 {
        let x = self.encoding.encode(snapshot);
        self.model
            .predict(&self.scaler.transform(&x))
            .expect("encoder/scaler/model dims agree by construction")
    }

    /// Predicts ψ_stable for a whole batch of configurations through the
    /// flat-matrix pipeline: all snapshots are encoded into one
    /// [`DenseMatrix`], scaled in place, and pushed through the SVR's
    /// batch path. Bit-identical to mapping [`StablePredictor::predict`]
    /// over the slice.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "encoder, scaler and model are fit on the same matrix, so widths match"
    )]
    pub fn predict_batch(&self, snapshots: &[ConfigSnapshot]) -> Vec<f64> {
        let mut features = DenseMatrix::with_cols(self.encoding.dim());
        for snapshot in snapshots {
            features.push_row(&self.encoding.encode(snapshot));
        }
        self.model
            .predict_batch(&self.scaler.transform_matrix(&features))
            .expect("encoder/scaler/model dims agree by construction")
    }

    /// Predicts every row of a raw (unscaled) feature matrix in this
    /// predictor's encoding.
    ///
    /// # Errors
    ///
    /// [`PredictError::Svm`] wrapping a dimension mismatch when the matrix
    /// width does not match the encoding.
    pub fn predict_features_batch(
        &self,
        raw_features: &DenseMatrix,
    ) -> Result<Vec<f64>, PredictError> {
        if raw_features.cols() != self.encoding.dim() {
            return Err(PredictError::Svm(
                vmtherm_svm::SvmError::DimensionMismatch {
                    expected: self.encoding.dim(),
                    actual: raw_features.cols(),
                },
            ));
        }
        Ok(self
            .model
            .predict_batch(&self.scaler.transform_matrix(raw_features))?)
    }

    /// The encoding used at training time.
    #[must_use]
    pub fn encoding(&self) -> FeatureEncoding {
        self.encoding
    }

    /// The hyper-parameters used for the final model.
    #[must_use]
    pub fn params(&self) -> SvrParams {
        self.params
    }

    /// Grid-search cross-validation MSE, when grid search ran.
    #[must_use]
    pub fn cv_mse(&self) -> Option<f64> {
        self.cv_mse
    }

    /// Number of support vectors in the deployed model.
    #[must_use]
    pub fn num_support_vectors(&self) -> usize {
        self.model.num_support_vectors()
    }

    /// Serialises the whole deployed pipeline (encoding + scaler + SVR)
    /// into a self-describing text container, so a model trained offline
    /// can be shipped to the online predictor — the paper's
    /// "trained … and deployed in real environment" step.
    #[must_use]
    pub fn save_to_string(&self) -> String {
        let encoding_tag = match self.encoding {
            FeatureEncoding::Full => "full",
            FeatureEncoding::CountOnly => "count-only",
            FeatureEncoding::NoEnvironment => "no-environment",
        };
        format!(
            "vmtherm-pipeline v1\nencoding={encoding_tag}\n{}{}",
            vmtherm_svm::model_io::scaler_to_string(&self.scaler),
            vmtherm_svm::model_io::svr_to_string(&self.model),
        )
    }

    /// Restores a pipeline saved by [`StablePredictor::save_to_string`].
    ///
    /// # Errors
    ///
    /// [`PredictError::Svm`] wrapping a parse error for malformed content.
    pub fn load_from_string(text: &str) -> Result<Self, PredictError> {
        let mut lines = text.splitn(3, '\n');
        let header = lines.next().unwrap_or_default();
        if header.trim() != "vmtherm-pipeline v1" {
            return Err(PredictError::Svm(vmtherm_svm::SvmError::Parse {
                line: 1,
                message: format!("bad pipeline header `{header}`"),
            }));
        }
        let enc_line = lines.next().unwrap_or_default();
        let encoding = match enc_line.trim().strip_prefix("encoding=") {
            Some("full") => FeatureEncoding::Full,
            Some("count-only") => FeatureEncoding::CountOnly,
            Some("no-environment") => FeatureEncoding::NoEnvironment,
            _ => {
                return Err(PredictError::Svm(vmtherm_svm::SvmError::Parse {
                    line: 2,
                    message: format!("bad encoding line `{enc_line}`"),
                }))
            }
        };
        let rest = lines.next().unwrap_or_default();
        // The scaler block ends where the SVR block's header begins.
        let svr_start = rest.find("vmtherm-model svr v1").ok_or_else(|| {
            PredictError::Svm(vmtherm_svm::SvmError::Parse {
                line: 3,
                message: "missing svr block".to_string(),
            })
        })?;
        let scaler = vmtherm_svm::model_io::scaler_from_string(&rest[..svr_start])?;
        let model = vmtherm_svm::model_io::svr_from_string(&rest[svr_start..])?;
        let params = SvrParams::new().with_kernel(model.kernel());
        Ok(StablePredictor {
            encoding,
            scaler,
            model,
            params,
            cv_mse: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmtherm_sim::server::ServerSpec;
    use vmtherm_sim::vm::VmSpec;
    use vmtherm_sim::workload::{TaskProfile, ALL_TASK_PROFILES};
    use vmtherm_sim::CaseGenerator;
    use vmtherm_sim::SimDuration;
    use vmtherm_svm::kernel::Kernel;
    use vmtherm_units::Celsius;

    /// Small, fast experiment set: short runs, fixed params (no grid).
    fn outcomes(n: usize) -> Vec<ExperimentOutcome> {
        let mut gen = CaseGenerator::new(42);
        let configs: Vec<ExperimentConfig> = gen
            .random_cases(n, 1000)
            .into_iter()
            .map(|c| {
                c.with_duration(SimDuration::from_secs(800))
                    .with_t_break(SimDuration::from_secs(550))
            })
            .collect();
        run_experiments(&configs)
    }

    fn fast_options() -> TrainingOptions {
        TrainingOptions::new().with_params(
            SvrParams::new()
                .with_c(64.0)
                .with_epsilon(0.1)
                .with_kernel(Kernel::rbf(0.02)),
        )
    }

    /// `count` short cases with exactly `vms` small VMs each, cycling
    /// through the task profiles.
    fn cases(vms: usize, count: usize, seed: u64) -> Vec<ExperimentConfig> {
        CaseGenerator::new(seed)
            .random_cases(count, seed)
            .into_iter()
            .map(|mut c| {
                c.vms = (0..vms)
                    .map(|i| {
                        let task = ALL_TASK_PROFILES[i % ALL_TASK_PROFILES.len()];
                        VmSpec::new(format!("vm-{i}"), 1, 2.0, task)
                    })
                    .collect();
                c.with_duration(SimDuration::from_secs(700))
            })
            .collect()
    }

    /// A 19-config campaign for the bit-identity gates: two runs of 8
    /// consecutive configs with one `duration` and a trailing run of 3
    /// with another, every task profile and three `t_break`s (two of
    /// them inside one run of equal durations).
    fn pinned_campaign() -> Vec<ExperimentConfig> {
        let mut configs = CaseGenerator::new(24).random_cases(19, 2_400);
        for (i, config) in configs.iter_mut().enumerate() {
            let task = ALL_TASK_PROFILES[i % ALL_TASK_PROFILES.len()];
            config.vms[0] = VmSpec::new("pinned", 2, 2.0, task);
            let (duration, t_break) = match i {
                0..=15 if i % 2 == 0 => (700, 600),
                0..=15 => (700, 650),
                _ => (900, 550),
            };
            config.duration = SimDuration::from_secs(duration);
            config.t_break = SimDuration::from_secs(t_break);
        }
        configs
    }

    /// FNV-1a over the bits of every field of every outcome.
    fn outcome_digest(outcomes: &[ExperimentOutcome]) -> u64 {
        let mut words = Vec::new();
        for o in outcomes {
            let s = &o.snapshot;
            words.extend([
                s.theta_cpu.to_bits(),
                s.theta_memory_gb.to_bits(),
                u64::from(s.fan_count),
                s.fan_airflow_cfm.to_bits(),
                s.ambient_c.to_bits(),
                o.psi_stable.to_bits(),
                o.true_stable.to_bits(),
                o.initial_temp.to_bits(),
                s.vms.len() as u64,
            ]);
            for vm in &s.vms {
                let task = ALL_TASK_PROFILES.iter().position(|t| *t == vm.task);
                words.extend([
                    u64::from(vm.vcpus),
                    vm.memory_gb.to_bits(),
                    task.map_or(u64::MAX, |k| k as u64),
                ]);
            }
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            word.to_le_bytes().iter().fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    #[test]
    fn campaign_outcomes_match_their_pinned_digest() {
        // Pinned from one standalone simulation per experiment, each
        // recording full traces.
        let configs = pinned_campaign();
        let serial: Vec<ExperimentOutcome> = configs.iter().map(ExperimentConfig::run).collect();
        assert_eq!(outcome_digest(&serial), 0x2f82_bc44_d955_91b6);
        let grouped = run_experiments_threaded(&configs, 1);
        assert_eq!(outcome_digest(&grouped), 0x2f82_bc44_d955_91b6);
    }

    #[test]
    fn campaign_is_bit_identical_to_serial_runs_at_any_thread_count() {
        let small = cases(2, 3, 5);
        let large = cases(12, 3, 6);
        let mixed: Vec<ExperimentConfig> = small
            .iter()
            .zip(&large)
            .flat_map(|(a, b)| [a.clone(), b.clone()])
            .collect();
        let pinned = pinned_campaign();
        let campaigns: [&[ExperimentConfig]; 5] = [&[], &small[..1], &small, &mixed, &pinned];
        for configs in campaigns {
            let serial: Vec<ExperimentOutcome> =
                configs.iter().map(ExperimentConfig::run).collect();
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    run_experiments_threaded(configs, threads),
                    serial,
                    "{} configs on {threads} threads",
                    configs.len()
                );
            }
            assert_eq!(run_experiments(configs), serial);
        }
    }

    #[test]
    #[should_panic(expected = "t_break")]
    fn campaign_reraises_an_experiment_panic() {
        // Configs 0..8 share a duration and so one lockstep group; the bad
        // one sits in its middle.
        let mut configs = cases(2, 11, 7);
        configs[3] = configs[3].clone().with_t_break(SimDuration::from_secs(700));
        let _ = run_experiments_threaded(&configs, 2);
    }

    #[test]
    fn fits_and_predicts_training_cases_well() {
        let data = outcomes(30);
        let p = StablePredictor::fit(&data, &fast_options()).unwrap();
        let preds: Vec<f64> = data.iter().map(|o| p.predict(&o.snapshot)).collect();
        let actual: Vec<f64> = data.iter().map(|o| o.psi_stable).collect();
        let mse = vmtherm_svm::metrics::mse(&actual, &preds);
        assert!(mse < 2.0, "training mse = {mse}");
    }

    #[test]
    fn generalises_to_held_out_cases() {
        let train = outcomes(60);
        let p = StablePredictor::fit(&train, &fast_options()).unwrap();
        // Different generator seed → unseen cases.
        let mut gen = CaseGenerator::new(777);
        let test_configs: Vec<ExperimentConfig> = gen
            .random_cases(10, 9000)
            .into_iter()
            .map(|c| {
                c.with_duration(SimDuration::from_secs(800))
                    .with_t_break(SimDuration::from_secs(550))
            })
            .collect();
        let test = run_experiments(&test_configs);
        let preds: Vec<f64> = test.iter().map(|o| p.predict(&o.snapshot)).collect();
        let actual: Vec<f64> = test.iter().map(|o| o.psi_stable).collect();
        let mse = vmtherm_svm::metrics::mse(&actual, &preds);
        assert!(mse < 6.0, "held-out mse = {mse}");
    }

    #[test]
    fn empty_training_set_is_an_error() {
        assert!(matches!(
            StablePredictor::fit(&[], &fast_options()),
            Err(PredictError::NoTrainingData)
        ));
    }

    #[test]
    fn dataset_has_right_shape() {
        let data = outcomes(5);
        let ds = dataset_from_outcomes(&data, FeatureEncoding::Full);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.dim(), FeatureEncoding::Full.dim());
        assert_eq!(ds.target(0), data[0].psi_stable);
    }

    #[test]
    fn predict_batch_matches_scalar_bitwise() {
        let data = outcomes(20);
        let p = StablePredictor::fit(&data, &fast_options()).unwrap();
        let snapshots: Vec<_> = data.iter().map(|o| o.snapshot.clone()).collect();
        let batch = p.predict_batch(&snapshots);
        assert_eq!(batch.len(), snapshots.len());
        for (s, got) in snapshots.iter().zip(&batch) {
            assert_eq!(p.predict(s).to_bits(), got.to_bits());
        }
    }

    #[test]
    fn predict_features_rejects_wrong_dim() {
        let data = outcomes(10);
        let p = StablePredictor::fit(&data, &fast_options()).unwrap();
        let one_column = DenseMatrix::from_nested(vec![vec![1.0]]).unwrap();
        assert!(p.predict_features_batch(&one_column).is_err());
    }

    #[test]
    fn predictor_is_deterministic() {
        let data = outcomes(20);
        let a = StablePredictor::fit(&data, &fast_options()).unwrap();
        let b = StablePredictor::fit(&data, &fast_options()).unwrap();
        let s = &data[3].snapshot;
        assert_eq!(a.predict(s), b.predict(s));
    }

    #[test]
    fn more_load_predicts_hotter() {
        let data = outcomes(60);
        let p = StablePredictor::fit(&data, &fast_options()).unwrap();
        let server = ServerSpec::commodity("probe", 16, 2.4, 64.0, 4);
        let light = ExperimentConfig::new(
            server.clone(),
            vec![VmSpec::new("idle", 1, 2.0, TaskProfile::Idle); 2],
            Celsius::new(24.0),
            5,
        );
        let heavy = ExperimentConfig::new(
            server,
            (0..8)
                .map(|i| VmSpec::new(format!("hog{i}"), 2, 4.0, TaskProfile::CpuBound))
                .collect(),
            Celsius::new(24.0),
            5,
        );
        // Build snapshots without running: capture via short runs.
        let light_snap = light
            .with_duration(SimDuration::from_secs(700))
            .run()
            .snapshot;
        let heavy_snap = heavy
            .with_duration(SimDuration::from_secs(700))
            .run()
            .snapshot;
        assert!(p.predict(&heavy_snap) > p.predict(&light_snap) + 3.0);
    }

    #[test]
    fn pipeline_save_load_round_trip() {
        let data = outcomes(20);
        let p = StablePredictor::fit(&data, &fast_options()).unwrap();
        let text = p.save_to_string();
        let back = StablePredictor::load_from_string(&text).unwrap();
        assert_eq!(back.encoding(), p.encoding());
        for o in &data {
            let a = p.predict(&o.snapshot);
            let b = back.predict(&o.snapshot);
            assert!((a - b).abs() < 1e-9, "prediction drift {a} vs {b}");
        }
    }

    #[test]
    fn pipeline_load_rejects_garbage() {
        assert!(StablePredictor::load_from_string("not a pipeline").is_err());
        assert!(
            StablePredictor::load_from_string("vmtherm-pipeline v1\nencoding=weird\nx").is_err()
        );
        assert!(
            StablePredictor::load_from_string("vmtherm-pipeline v1\nencoding=full\nno blocks")
                .is_err()
        );
    }

    #[test]
    fn grid_search_path_works_and_records_cv_mse() {
        let data = outcomes(25);
        let opts = TrainingOptions::new().with_folds(3).with_seed(1);
        let p = StablePredictor::fit(&data, &opts).unwrap();
        assert!(p.cv_mse().is_some());
        assert!(p.cv_mse().unwrap() < 10.0, "cv mse = {:?}", p.cv_mse());
        assert!(p.num_support_vectors() > 0);
    }
}
