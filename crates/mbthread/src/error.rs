//! Error types for kernel operations.

use crate::thread::ThreadId;
use std::error::Error;
use std::fmt;

/// Errors returned by blocking kernel operations ([`Ctx::receive`](crate::Ctx::receive)
/// (crate::Ctx::receive), sleeps, synchronous sends).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The kernel is shutting down; the thread should unwind and return.
    Shutdown,
    /// The peer thread terminated before replying to a synchronous send.
    PeerGone(ThreadId),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Shutdown => write!(f, "kernel is shutting down"),
            KernelError::PeerGone(id) => {
                write!(f, "peer {id} terminated before replying")
            }
        }
    }
}

impl Error for KernelError {}

/// Errors returned by send operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The kernel is shutting down.
    Shutdown,
    /// The destination thread does not exist or has terminated.
    UnknownThread(ThreadId),
    /// A reply was sent to a request whose sender is no longer waiting
    /// (it timed out, unwound, or already received a reply).
    StaleReply,
    /// The envelope carries no reply token, so it cannot be replied to.
    NotARequest,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Shutdown => write!(f, "kernel is shutting down"),
            SendError::UnknownThread(id) => write!(f, "no such thread: {id}"),
            SendError::StaleReply => write!(f, "reply target is no longer waiting"),
            SendError::NotARequest => write!(f, "envelope was not a synchronous request"),
        }
    }
}

impl Error for SendError {}

impl From<SendError> for KernelError {
    fn from(e: SendError) -> Self {
        match e {
            SendError::Shutdown => KernelError::Shutdown,
            SendError::UnknownThread(id) => KernelError::PeerGone(id),
            SendError::StaleReply | SendError::NotARequest => KernelError::Shutdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_lowercase() {
        for e in [KernelError::Shutdown, KernelError::PeerGone(ThreadId(3))] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
        for e in [
            SendError::Shutdown,
            SendError::UnknownThread(ThreadId(1)),
            SendError::StaleReply,
            SendError::NotARequest,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn send_error_converts_to_kernel_error() {
        assert_eq!(
            KernelError::from(SendError::UnknownThread(ThreadId(7))),
            KernelError::PeerGone(ThreadId(7))
        );
        assert_eq!(
            KernelError::from(SendError::Shutdown),
            KernelError::Shutdown
        );
    }
}
