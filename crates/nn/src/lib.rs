//! # trkx-nn
//!
//! Neural-network building blocks on top of [`trkx_tensor`]: parameters
//! and tape bindings, Kaiming initialisation, `Linear`/`Mlp`/`LayerNorm`
//! modules written once over an executor ([`Exec`]: a recording tape for
//! training, the eager executor for inference), the Adam optimizer (fixed learning rate, no clipping or
//! schedule: the one way every stage trains), and the losses used by the
//! Exa.TrkX pipeline stages (BCE-with-logits for edge classification,
//! contrastive hinge for the metric-learning embedding).
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use trkx_nn::{Adam, Bindings, Mlp, MlpConfig, Recorder};
//! use trkx_tensor::{Matrix, Tape};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(MlpConfig::new(&[2, 8, 1]), "net", &mut rng);
//! let mut opt = Adam::new(1e-2);
//! for _ in 0..10 {
//!     let mut tape = Tape::new();
//!     let mut bind = Bindings::new();
//!     let x = tape.constant(Matrix::from_vec(4, 2, vec![0.,0., 0.,1., 1.,0., 1.,1.]));
//!     let logits = mlp.forward(&mut Recorder::new(&mut tape, &mut bind), x);
//!     let loss = trkx_nn::bce_with_logits(&mut tape, logits, &[0., 1., 1., 0.], 1.0);
//!     tape.backward(loss);
//!     let mut params = mlp.params_mut();
//!     bind.harvest(&tape, &mut params);
//!     opt.step(&mut params);
//!     for p in params { p.zero_grad(); }
//! }
//! ```

pub mod bucket;
pub mod exec;
pub mod init;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod norm;
pub mod optim;
pub mod param;

pub use bucket::BucketLayout;
pub use exec::{Eager, Exec, Recorder, CHUNK_ROWS};
pub use linear::Linear;
pub use loss::{bce_with_logits, contrastive_hinge_loss, BinaryStats};
pub use mlp::{Activation, Mlp, MlpConfig};
pub use norm::LayerNorm;
pub use optim::Adam;
pub use param::{flatten_grads, unflatten_grads, Bindings, Param};
