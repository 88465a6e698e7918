//! Service-thread lifecycle: the one place `netpipe` creates OS threads.
//!
//! Thread transparency means the middleware, not each component, owns
//! thread creation and lifetime. Every service thread of this crate — the
//! serving tier's accept loop and housekeeper, the inspector's accept loop
//! and per-client handlers, the remote host's event forwarder, the
//! receive pump behind `bind_receiver`, the TCP writer, the UDP flusher
//! and reader — is a [`Worker`]: a named thread with a stop request that
//! is stopped and joined when its owner drops it. [`spawn_accept_loop`]
//! is the one accept loop on top of it.
//!
//! A worker whose body can drop its own last owner (the UDP flusher and
//! reader upgrade a `Weak`; a receive pump holds a clone of the link that
//! owns it) is dropped *on its own thread*. Joining there would wait for
//! itself, so that one drop lets go of the handle instead: the body is by
//! then on its way out, and `crates/netpipe/tests/lifecycle.rs` holds
//! every backend to "thread count returns to baseline".

use crate::transport::{Acceptor, TransportError};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The stop request a worker body polls between units of work.
pub(crate) struct Stop(Arc<AtomicBool>);

impl Stop {
    pub(crate) fn requested(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sleeps up to `period`; returns early, and `true`, once a stop is
    /// requested ([`Worker`] unparks the thread when it asks).
    pub(crate) fn sleep(&self, period: Duration) -> bool {
        let deadline = Instant::now() + period;
        loop {
            if self.requested() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            std::thread::park_timeout(deadline - now);
        }
    }
}

/// A named service thread, stopped and joined when dropped.
pub(crate) struct Worker<T = ()> {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<T>>,
}

impl<T: Send + 'static> Worker<T> {
    /// Starts `body` on a new thread called `name`.
    ///
    /// # Errors
    ///
    /// The OS refused to create the thread.
    pub(crate) fn spawn(
        name: &str,
        body: impl FnOnce(&Stop) -> T + Send + 'static,
    ) -> io::Result<Worker<T>> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Stop(Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || body(&flag))?;
        Ok(Worker {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the worker and waits for it, returning what its body
    /// returned (`None` if the body panicked).
    pub(crate) fn shutdown(mut self) -> Option<T> {
        self.stop_and_join()
    }
}

impl<T> Worker<T> {
    /// Asks the body to stop without waiting for it.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = &self.handle {
            handle.thread().unpark();
        }
    }

    /// Whether the body has returned.
    pub(crate) fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }

    fn stop_and_join(&mut self) -> Option<T> {
        self.request_stop();
        let handle = self.handle.take()?;
        if handle.thread().id() == std::thread::current().id() {
            // Dropped by its own body (see the module docs): never
            // self-join.
            return None;
        }
        handle.join().ok()
    }
}

impl<T> Drop for Worker<T> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How often an accept loop checks its stop request between bounded
/// [`Acceptor::accept_timeout`] waits.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// What an accept loop did over its lifetime.
pub(crate) struct Accepted {
    /// Links accepted and handed to `serve`.
    pub(crate) links: u64,
    /// The most per-link handlers alive at once.
    pub(crate) peak_handlers: usize,
}

/// The one accept loop: polls [`Acceptor::accept_timeout`] so a stop
/// request never needs a poison connection, and hands every accepted
/// link to `serve`. A `serve` that answers with a per-link handler
/// leaves the handler to the loop, which reaps finished ones on every
/// poll and stops and joins the rest when it ends.
///
/// # Errors
///
/// The OS refused to create the thread.
pub(crate) fn spawn_accept_loop<A: Acceptor + 'static>(
    name: &str,
    acceptor: A,
    mut serve: impl FnMut(A::Link) -> Option<Worker> + Send + 'static,
) -> io::Result<Worker<Accepted>> {
    Worker::spawn(name, move |stop| {
        let mut handlers: Vec<Worker> = Vec::new();
        let mut done = Accepted {
            links: 0,
            peak_handlers: 0,
        };
        while !stop.requested() {
            let accepted = acceptor.accept_timeout(ACCEPT_POLL);
            handlers.retain(|h| !h.is_finished());
            match accepted {
                Ok(Some(link)) => {
                    done.links += 1;
                    handlers.extend(serve(link));
                    done.peak_handlers = done.peak_handlers.max(handlers.len());
                }
                Ok(None) => {}
                Err(TransportError::Closed) => break,
                // Transient socket errors (e.g. a connection reset
                // between accept and handshake) should not kill the
                // serving tier.
                Err(_) => {}
            }
        }
        // Ask every handler first, then join: the waits overlap.
        handlers.iter().for_each(Worker::request_stop);
        drop(handlers);
        done
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worker_dropped_by_its_own_body_does_not_join_itself() {
        // The owner hands the body the only reference to itself — what
        // the UDP flusher ends up holding once every link clone is gone.
        let (tx, rx) = std::sync::mpsc::channel::<Worker>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = Worker::spawn("test-self-owner", move |_| {
            let me = rx.recv().expect("owner sends the handle");
            drop(me);
            done_tx.send(()).expect("owner waits");
        })
        .unwrap();
        tx.send(worker).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the body must survive dropping its own handle");
    }
}
