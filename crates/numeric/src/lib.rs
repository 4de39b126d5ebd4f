//! Linear-algebra substrate for the `ind101` on-chip inductance toolkit.
//!
//! The 2001 paper this repository reproduces leans on four numerical
//! kernels, none of which exist in the approved offline dependency set:
//!
//! * **dense symmetric solvers** — partial-inductance matrices are dense
//!   and symmetric positive definite (Cholesky), and sparsified variants
//!   must be *checked* for positive definiteness (Householder reduction,
//!   then Sturm bisection for the extreme eigenvalues);
//! * **sparse/general LU** — modified-nodal-analysis (MNA) matrices of
//!   the PEEC circuit are sparse, and the inductive coupling is what
//!   fills them in; a KLU-class sparse LU (BTF blocks, AMD ordering,
//!   supernodal panels) factors them, dense LU what is left, and AC
//!   analysis needs the same factorizations over complex numbers;
//! * **block orthonormalization** — PRIMA model-order reduction is a block
//!   Arnoldi process built on modified Gram–Schmidt;
//! * **matrix-free iteration** — on regular filament grids the
//!   inductance block is applied through an FFT (block-Toeplitz)
//!   operator and never formed; one iterative solver, right-preconditioned
//!   restarted GMRES, solves those systems, rescued first by a grown
//!   restart and then by a dense-direct solve.
//!
//! Everything here is implemented from scratch and kept deliberately
//! small: row-major dense matrices, CSR sparse matrices, and the
//! orderings the sparse LU needs (BTF transversal, AMD).
//!
//! # Example
//!
//! ```
//! use ind101_numeric::{Matrix, Complex64};
//!
//! // Solve a small real system A x = b by LU with partial pivoting.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.lu().unwrap().solve(&[1.0, 2.0]).unwrap();
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//!
//! // Complex arithmetic for AC analysis.
//! let z = Complex64::new(3.0, 4.0);
//! assert_eq!(z.abs(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod amd;
mod btf;
mod budget;
mod cholesky;
mod complex;
mod condition;
mod dense;
mod eigen;
mod error;
#[cfg(feature = "solver-faults")]
pub mod faults;
mod fft;
pub mod gemm;
mod krylov;
mod krylov_rescue;
mod lu;
mod ordering;
pub mod partition;
mod qr;
mod refine;
mod scalar;
mod sparse;
mod sparse_lu;
mod supernode;
mod toeplitz;
mod vecops;

pub use amd::approximate_minimum_degree;
pub use btf::BtfForm;
pub use budget::{BudgetError, CancelToken, SolveBudget, SolveGuard};
pub use cholesky::CholeskyFactor;
pub use complex::Complex64;
pub use condition::RefinedSolve;
pub use dense::Matrix;
pub use eigen::{extreme_eigenvalues, jacobi_eigenvectors, SymmetricEigen};
pub use error::NumericError;
pub use fft::Fft;
pub use gemm::gemm_into;
pub use krylov::{
    gmres, gmres_guarded, IdentityPreconditioner, JacobiPreconditioner, KrylovError, KrylovOptions,
    KrylovSolution, LinearOperator, Preconditioner,
};
pub use krylov_rescue::{
    solve_with_rescue, KrylovRescueFailure, KrylovRescuePolicy, KrylovRescueReport,
    KrylovRescueRung, KrylovRungTrace, NoEscalation, RescueProvider,
};
pub use lu::{LuFactors, LU_BLOCK};
pub use ordering::Permutation;
pub use partition::ParallelConfig;
pub use qr::{mgs_orthonormalize, orthonormalize_against};
pub use refine::{refine, Refined, REFINE_MAX_ROUNDS, REFINE_TOL};
pub use scalar::Scalar;
pub use sparse::{CsrMatrix, CsrPattern, Triplets};
pub use sparse_lu::{SparseLu, SparseLuStats, SymbolicLu};
pub use supernode::SupernodePartition;
pub use toeplitz::ToeplitzOperator2D;
pub use vecops::{axpy, dot, norm2, norm_inf, scale};

/// Convenient result alias for fallible numeric operations.
pub type Result<T> = std::result::Result<T, NumericError>;
