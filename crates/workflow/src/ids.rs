//! Strongly-typed indices for jobs and resources.
//!
//! Both are compact `u32` indices so they can be used to address dense
//! vectors (`Vec<T>` indexed by job / resource) without hashing, which keeps
//! the hot scheduling loops allocation- and hash-free.

use std::fmt;

/// Identifier of a job (node) in a [`crate::Dag`]; dense index `0..v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The job's position as a `usize`, for vector indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0 + 1) // paper numbers jobs from n1
    }
}

impl From<usize> for JobId {
    #[inline]
    fn from(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        JobId(i as u32)
    }
}

/// Identifier of a computation resource; dense index `0..R` in the order
/// resources joined the pool (resources discovered later get higher ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The resource's position as a `usize`, for vector indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0 + 1) // paper numbers resources from r1
    }
}

impl From<usize> for ResourceId {
    #[inline]
    fn from(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        ResourceId(i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_roundtrip() {
        let id = JobId::from(7usize);
        assert_eq!(id.idx(), 7);
        assert_eq!(id, JobId(7));
    }

    #[test]
    fn display_uses_paper_numbering() {
        assert_eq!(JobId(0).to_string(), "n1");
        assert_eq!(ResourceId(2).to_string(), "r3");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(JobId(1) < JobId(2));
        assert!(ResourceId(0) < ResourceId(9));
    }
}
