//! Versioned model registry. Holds the active [`TrainedPipeline`]
//! behind an `Arc` swap: workers grab the current model once per
//! request, so a `reload` hot-swaps between requests without pausing
//! the service. Artifacts are validated (checkpoint metadata headers
//! against the bundle's own configuration, then per-tensor shape checks
//! at apply time) *before* the swap — a bad artifact leaves the old
//! version serving and returns a clear error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use trkx_core::{CheckpointError, TrainedPipeline};

/// One loaded, validated model version.
pub struct LoadedModel {
    /// Monotonically increasing version id (1 for the initial load).
    pub version: u64,
    /// Artifact path the version was loaded from (empty for in-memory
    /// models handed to [`ModelRegistry::from_pipeline`]).
    pub path: PathBuf,
    pub pipeline: TrainedPipeline,
}

/// Hot-swappable registry of pipeline versions.
pub struct ModelRegistry {
    active: RwLock<Arc<LoadedModel>>,
    next_version: AtomicU64,
}

impl ModelRegistry {
    /// Load and validate the initial artifact.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let pipeline = TrainedPipeline::load_json(path)?;
        Ok(Self::with_initial(LoadedModel {
            version: 1,
            path: path.to_path_buf(),
            pipeline,
        }))
    }

    /// Register an already-constructed pipeline as version 1 (tests and
    /// in-process benches skip the artifact round-trip).
    pub fn from_pipeline(pipeline: TrainedPipeline) -> Self {
        Self::with_initial(LoadedModel {
            version: 1,
            path: PathBuf::new(),
            pipeline,
        })
    }

    fn with_initial(model: LoadedModel) -> Self {
        Self {
            active: RwLock::new(Arc::new(model)),
            next_version: AtomicU64::new(2),
        }
    }

    /// The active model (cheap `Arc` clone; callers hold it for the
    /// duration of one request).
    pub fn active(&self) -> Arc<LoadedModel> {
        Arc::clone(&self.active.read().unwrap())
    }

    /// Active version id.
    pub fn version(&self) -> u64 {
        self.active.read().unwrap().version
    }

    /// Load, validate, and hot-swap a new artifact. On any error the
    /// active version is left untouched and keeps serving.
    pub fn reload(&self, path: impl AsRef<Path>) -> Result<u64, CheckpointError> {
        let path = path.as_ref();
        let pipeline = TrainedPipeline::load_json(path)?;
        let version = self.next_version.fetch_add(1, Ordering::SeqCst);
        let model = Arc::new(LoadedModel {
            version,
            path: path.to_path_buf(),
            pipeline,
        });
        *self.active.write().unwrap() = model;
        Ok(version)
    }
}
