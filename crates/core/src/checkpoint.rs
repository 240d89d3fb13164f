//! Model checkpointing: a PyTorch-`state_dict`-like named-tensor map,
//! serialised as JSON, matched back onto parameters by name and shape.
//! A trained GNN stage (or any stack of [`trkx_nn::Param`]s) can be
//! saved and restored bit-for-bit.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use trkx_nn::Param;
use trkx_tensor::Matrix;

/// One serialised tensor.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TensorEntry {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

/// Current metadata-header format version written by
/// [`Checkpoint::with_meta`].
pub const CHECKPOINT_META_VERSION: u32 = 1;

/// Small self-describing header attached to a checkpoint: which stage it
/// belongs to and the model dimensions it was captured from. Lets a
/// loader (the serving model registry in particular) reject
/// shape-mismatched artifacts with a clear error *before* constructing a
/// model, instead of failing tensor-by-tensor at apply time.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Header format version ([`CHECKPOINT_META_VERSION`]).
    pub format_version: u32,
    /// Stage name: `"embedding"`, `"filter"`, or `"gnn"`.
    pub stage: String,
    /// Node/input feature count the stage was built for.
    pub input_dim: usize,
    /// Edge feature count (0 for stages without edge inputs).
    pub edge_dim: usize,
    /// Output width (embedding dimension, or 1 for edge classifiers).
    pub output_dim: usize,
    /// Total scalars across all tensors (consistency check).
    pub num_params: usize,
}

/// Named-tensor checkpoint.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Optional metadata header; `None` for legacy headerless files,
    /// which remain loadable (validation then falls back to the
    /// per-tensor shape checks in [`Checkpoint::apply_to`]).
    pub meta: Option<CheckpointMeta>,
    pub tensors: BTreeMap<String, TensorEntry>,
}

/// Errors from applying a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    MissingTensor(String),
    ShapeMismatch {
        name: String,
        expected: (usize, usize),
        found: (usize, usize),
    },
    /// The metadata header contradicts what the loader expects.
    Meta(String),
    Io(String),
    Parse(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::MissingTensor(n) => write!(f, "checkpoint missing tensor {n}"),
            CheckpointError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "tensor {name}: expected {}x{}, checkpoint has {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            CheckpointError::Meta(e) => write!(f, "checkpoint metadata mismatch: {e}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Capture the current values of `params`, keyed by parameter name.
    pub fn from_params(params: &[&Param]) -> Self {
        let mut tensors = BTreeMap::new();
        for p in params {
            let prev = tensors.insert(
                p.name().to_string(),
                TensorEntry {
                    rows: p.value.rows(),
                    cols: p.value.cols(),
                    data: p.value.data().to_vec(),
                },
            );
            assert!(prev.is_none(), "duplicate parameter name {}", p.name());
        }
        Self {
            version: 1,
            meta: None,
            tensors,
        }
    }

    /// Attach a metadata header (filling in `num_params` from the stored
    /// tensors and `format_version` with the current one).
    pub fn with_meta(
        mut self,
        stage: &str,
        input_dim: usize,
        edge_dim: usize,
        output_dim: usize,
    ) -> Self {
        self.meta = Some(CheckpointMeta {
            format_version: CHECKPOINT_META_VERSION,
            stage: stage.to_string(),
            input_dim,
            edge_dim,
            output_dim,
            num_params: self.numel(),
        });
        self
    }

    /// Validate the metadata header against what the loader expects.
    ///
    /// Headerless checkpoints (legacy files) pass vacuously — the
    /// per-tensor shape checks in [`Checkpoint::apply_to`] still guard
    /// them. A present header must match the expected stage name and
    /// dimensions, and agree with the stored tensors' total scalar count.
    pub fn validate_meta(
        &self,
        stage: &str,
        input_dim: usize,
        edge_dim: usize,
        output_dim: usize,
    ) -> Result<(), CheckpointError> {
        let Some(meta) = &self.meta else {
            return Ok(());
        };
        if meta.format_version > CHECKPOINT_META_VERSION {
            return Err(CheckpointError::Meta(format!(
                "{} checkpoint has header format v{} but this build reads up to v{}",
                meta.stage, meta.format_version, CHECKPOINT_META_VERSION
            )));
        }
        if meta.stage != stage {
            return Err(CheckpointError::Meta(format!(
                "expected a {:?} checkpoint, found {:?}",
                stage, meta.stage
            )));
        }
        for (what, found, want) in [
            ("input_dim", meta.input_dim, input_dim),
            ("edge_dim", meta.edge_dim, edge_dim),
            ("output_dim", meta.output_dim, output_dim),
        ] {
            if found != want {
                return Err(CheckpointError::Meta(format!(
                    "{} checkpoint {what} is {found} but the configuration expects {want}",
                    meta.stage
                )));
            }
        }
        if meta.num_params != self.numel() {
            return Err(CheckpointError::Meta(format!(
                "{} checkpoint header claims {} scalars but the tensors hold {} \
                 (truncated or corrupted artifact?)",
                meta.stage,
                meta.num_params,
                self.numel()
            )));
        }
        Ok(())
    }

    /// Restore values into `params` by name. Every param must be present
    /// with a matching shape; extra checkpoint tensors are ignored.
    pub fn apply_to(&self, params: &mut [&mut Param]) -> Result<(), CheckpointError> {
        for p in params.iter_mut() {
            let entry = self
                .tensors
                .get(p.name())
                .ok_or_else(|| CheckpointError::MissingTensor(p.name().to_string()))?;
            let expected = (p.value.rows(), p.value.cols());
            let found = (entry.rows, entry.cols);
            if expected != found {
                return Err(CheckpointError::ShapeMismatch {
                    name: p.name().to_string(),
                    expected,
                    found,
                });
            }
            p.value = Matrix::from_vec(entry.rows, entry.cols, entry.data.clone());
        }
        Ok(())
    }

    /// Total scalars stored.
    pub fn numel(&self) -> usize {
        self.tensors.values().map(|t| t.data.len()).sum()
    }

    /// Serialise to a JSON file.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        let json =
            serde_json::to_string(self).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        std::fs::write(path, json).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Load from a JSON file.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn_stage::{infer_logits_with, prepare_graphs, GnnTrainConfig};
    use rand::{rngs::StdRng, SeedableRng};
    use trkx_detector::DatasetConfig;
    use trkx_ignn::InteractionGnn;
    use trkx_nn::Bindings;
    use trkx_tensor::Tape;

    #[test]
    fn roundtrip_restores_predictions() {
        let graphs = prepare_graphs(&DatasetConfig::ex3_like(0.01).generate(1, 3));
        let cfg = GnnTrainConfig {
            hidden: 8,
            gnn_layers: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let model = InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng);
        let infer_logits = |model: &InteractionGnn| {
            infer_logits_with(&mut Tape::new(), &mut Bindings::new(), model, &graphs[0])
        };
        let before = infer_logits(&model);

        let ckpt = Checkpoint::from_params(&model.params());
        assert!(ckpt.numel() > 0);

        // A differently initialised model predicts differently...
        let mut rng2 = StdRng::seed_from_u64(2);
        let mut other = InteractionGnn::new(cfg.ignn_config(6, 2), &mut rng2);
        let different = infer_logits(&other);
        assert!(before
            .iter()
            .zip(&different)
            .any(|(a, b)| (a - b).abs() > 1e-6));

        // ...until the checkpoint is applied.
        let mut params = other.params_mut();
        ckpt.apply_to(&mut params).unwrap();
        let after = infer_logits(&other);
        assert_eq!(before, after);
    }

    #[test]
    fn file_roundtrip() {
        let mut p = Param::new("w", Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let ckpt = Checkpoint::from_params(&[&p]);
        let dir = std::env::temp_dir().join("trkx_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        ckpt.save_json(&path).unwrap();
        let loaded = Checkpoint::load_json(&path).unwrap();
        assert_eq!(loaded, ckpt);
        p.value = Matrix::zeros(2, 2);
        loaded.apply_to(&mut [&mut p]).unwrap();
        assert_eq!(p.value.data(), &[1., 2., 3., 4.]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_tensor_is_an_error() {
        let ckpt = Checkpoint::default();
        let mut p = Param::new("absent", Matrix::zeros(1, 1));
        let err = ckpt.apply_to(&mut [&mut p]).unwrap_err();
        assert!(matches!(err, CheckpointError::MissingTensor(_)));
    }

    #[test]
    fn meta_header_validates_and_rejects_clearly() {
        let p = Param::new("w", Matrix::zeros(2, 3));
        let ckpt = Checkpoint::from_params(&[&p]).with_meta("filter", 6, 2, 1);
        assert!(ckpt.validate_meta("filter", 6, 2, 1).is_ok());

        // Wrong stage, wrong dims, inconsistent scalar count: each gets
        // its own clear Meta error.
        let err = ckpt.validate_meta("gnn", 6, 2, 1).unwrap_err();
        assert!(err.to_string().contains("expected a \"gnn\""), "{err}");
        let err = ckpt.validate_meta("filter", 7, 2, 1).unwrap_err();
        assert!(err.to_string().contains("input_dim"), "{err}");
        let err = ckpt.validate_meta("filter", 6, 2, 4).unwrap_err();
        assert!(err.to_string().contains("output_dim"), "{err}");

        let mut truncated = ckpt.clone();
        truncated.tensors.get_mut("w").unwrap().data.pop();
        let err = truncated.validate_meta("filter", 6, 2, 1).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        let mut future = ckpt.clone();
        future.meta.as_mut().unwrap().format_version = CHECKPOINT_META_VERSION + 1;
        let err = future.validate_meta("filter", 6, 2, 1).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
    }

    #[test]
    fn headerless_checkpoints_pass_meta_validation() {
        let p = Param::new("w", Matrix::zeros(2, 3));
        let ckpt = Checkpoint::from_params(&[&p]);
        assert!(ckpt.meta.is_none());
        // Legacy files validate vacuously against any expectation...
        assert!(ckpt.validate_meta("anything", 99, 99, 99).is_ok());
        // ...and survive a JSON roundtrip as headerless.
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert!(back.meta.is_none());
        assert_eq!(back, ckpt);
    }

    #[test]
    fn meta_header_roundtrips_through_json() {
        let p = Param::new("w", Matrix::zeros(2, 3));
        let ckpt = Checkpoint::from_params(&[&p]).with_meta("embedding", 6, 0, 8);
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.meta, ckpt.meta);
        assert_eq!(back.meta.unwrap().num_params, 6);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let p_src = Param::new("w", Matrix::zeros(2, 3));
        let ckpt = Checkpoint::from_params(&[&p_src]);
        let mut p_dst = Param::new("w", Matrix::zeros(3, 2));
        let err = ckpt.apply_to(&mut [&mut p_dst]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ShapeMismatch { .. }),
            "{err}"
        );
    }
}
