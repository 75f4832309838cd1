//! Helpers shared by the integration tests.

use std::time::Duration;

use seer::core::serving::{ServingError, ServingResponse, Ticket};

/// How long a test waits for one ticket before declaring the pool hung.
const TICKET_TIMEOUT: Duration = Duration::from_secs(30);

/// [`Ticket::wait`] with a bound: a ticket still unresolved after
/// [`TICKET_TIMEOUT`] panics, so a hung pool fails the test instead of
/// stalling the suite.
pub fn wait_bounded(mut ticket: Ticket) -> Result<ServingResponse, ServingError> {
    if ticket.wait_timeout(TICKET_TIMEOUT)?.is_none() {
        panic!("ticket unresolved after {TICKET_TIMEOUT:?}: the serving pool hung");
    }
    ticket.wait()
}
