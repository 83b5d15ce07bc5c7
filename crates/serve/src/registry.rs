//! The budgeted registry: what clients have asked the server to keep.
//!
//! Registered matrices and registered GNN models are the same thing to
//! the server's memory — an engine-issued id naming an `Arc`'d value that
//! stays resident until evicted — so both live in one `Registry`, with
//! one entry-count check and one byte check at insertion. Ids are issued
//! in ascending order and never reused.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use flashsparse::{TranslatedMatrix, TuneChoice};
use fs_matrix::CsrMatrix;

use crate::cache::Footprint;
use crate::fingerprint::Fingerprint;

/// What a registered matrix looks like to clients.
#[derive(Clone, Copy, Debug)]
pub struct MatrixInfo {
    /// Engine-assigned handle used by subsequent requests.
    pub id: u64,
    /// Content fingerprint (the cache key — shared across tenants).
    pub fingerprint: Fingerprint,
    /// Rows of the sparse matrix.
    pub rows: usize,
    /// Columns of the sparse matrix.
    pub cols: usize,
    /// Nonzeros of the sparse matrix.
    pub nnz: usize,
}

/// Why a registry refused a registration (the variants are named for
/// [`crate::ServeEngine::register_matrix`], their first user; the
/// message names no kind of entry — the caller says which registry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegisterError {
    /// The registry already holds its maximum number of entries.
    TooManyMatrices {
        /// The configured count cap.
        limit: usize,
    },
    /// Registering this value would exceed the registry's byte budget.
    ByteBudgetExceeded {
        /// The configured byte cap.
        limit: usize,
        /// Bytes already resident.
        resident: usize,
        /// Bytes this value needs.
        need: usize,
    },
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::TooManyMatrices { limit } => {
                write!(f, "registry full ({limit} entries)")
            }
            RegisterError::ByteBudgetExceeded { limit, resident, need } => {
                write!(
                    f,
                    "registry byte budget exhausted ({resident} of {limit} bytes resident, \
                     {need} more needed)"
                )
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Engine-issued id → `Arc<T>`, capped by entry count and by the
/// entries' [`Footprint`] bytes. Not internally synchronized.
pub(crate) struct Registry<T> {
    map: HashMap<u64, Arc<T>>,
    resident_bytes: usize,
    next_id: u64,
    max_entries: usize,
    max_bytes: usize,
}

impl<T: Footprint> Registry<T> {
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Registry<T> {
        Registry { map: HashMap::new(), resident_bytes: 0, next_id: 1, max_entries, max_bytes }
    }

    /// Register `value` under a fresh id, if both budgets allow it.
    pub(crate) fn insert(&mut self, value: T) -> Result<u64, RegisterError> {
        if self.map.len() >= self.max_entries {
            return Err(RegisterError::TooManyMatrices { limit: self.max_entries });
        }
        let need = value.footprint_bytes();
        if need > self.max_bytes.saturating_sub(self.resident_bytes) {
            return Err(RegisterError::ByteBudgetExceeded {
                limit: self.max_bytes,
                resident: self.resident_bytes,
                need,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.resident_bytes += need;
        self.map.insert(id, Arc::new(value));
        Ok(id)
    }

    pub(crate) fn get(&self, id: u64) -> Option<Arc<T>> {
        self.map.get(&id).cloned()
    }

    /// Drop one entry, releasing its bytes. Holders of the `Arc` finish
    /// against the old copy.
    pub(crate) fn remove(&mut self, id: u64) -> Option<Arc<T>> {
        let value = self.map.remove(&id)?;
        self.resident_bytes -= value.footprint_bytes();
        Some(value)
    }

    /// The ids of the entries `pick` picks.
    pub(crate) fn ids_where(&self, pick: impl Fn(&T) -> bool) -> Vec<u64> {
        self.iter().filter(|(_, v)| pick(v)).map(|(id, _)| id).collect()
    }

    /// Drop every entry `doomed` picks; returns their ids.
    pub(crate) fn remove_where(&mut self, doomed: impl Fn(&T) -> bool) -> Vec<u64> {
        let ids = self.ids_where(doomed);
        for &id in &ids {
            self.remove(id);
        }
        ids
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.map.iter().map(|(&id, v)| (id, &**v))
    }

    /// `(entries, resident bytes)`.
    pub(crate) fn stats(&self) -> (usize, usize) {
        (self.map.len(), self.resident_bytes)
    }
}

/// A registered matrix: the raw CSR stays resident so an evicted
/// translation can be rebuilt.
pub(crate) struct Registered {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) csr: CsrMatrix<f32>,
    /// Lazily built [`TuneChoice::FALLBACK`] translation — the middle
    /// rung of the ladder. Built at most once per registered matrix, on
    /// the first verification failure that needs it.
    fallback: OnceLock<TranslatedMatrix>,
}

impl Registered {
    pub(crate) fn new(csr: CsrMatrix<f32>) -> Registered {
        Registered { fingerprint: Fingerprint::of(&csr), csr, fallback: OnceLock::new() }
    }

    pub(crate) fn fallback_format(&self) -> &TranslatedMatrix {
        self.fallback.get_or_init(|| TranslatedMatrix::translate(&self.csr, &TuneChoice::FALLBACK))
    }
}

/// Row pointers, column indices, and values of the resident CSR.
impl Footprint for Registered {
    fn footprint_bytes(&self) -> usize {
        (self.csr.rows() + 1) * std::mem::size_of::<usize>()
            + self.csr.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }
}
