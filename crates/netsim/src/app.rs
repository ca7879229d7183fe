//! Application hooks.
//!
//! An [`App`] is attached to the simulator and driven by callbacks: timers it
//! scheduled, send-buffer space opening up on a flow it owns, transfer
//! completion, and in-order data delivery on a flow it receives. Apps interact
//! with the world exclusively through the [`SimApi`]
//! handle passed to every callback.

use crate::packet::{AppChunk, FlowId};
use crate::sim::SimApi;

/// Application behaviour attached to the simulator.
///
/// All methods have empty defaults so an app only implements the events it
/// cares about.
pub trait App {
    /// Called once when the app is added to the simulator.
    fn start(&mut self, api: &mut SimApi<'_>);

    /// A timer scheduled via [`SimApi::schedule_in`] fired. `tag` is the value
    /// passed at scheduling time.
    fn on_timer(&mut self, api: &mut SimApi<'_>, tag: u64) {
        let _ = (api, tag);
    }

    /// Send-buffer space became available on `flow` (the sender received a
    /// new cumulative ACK). Only delivered for flows owned via
    /// [`SimApi::own_flow`] whose send buffer the application fills with
    /// [`SimApi::push_chunk`]: a backlogged flow synthesises its own data
    /// and has no buffer to refill. This is the "TCP sender can fetch
    /// packets" trigger of DMP-streaming.
    fn on_send_space(&mut self, api: &mut SimApi<'_>, flow: FlowId) {
        let _ = (api, flow);
    }

    /// A sized backlogged transfer on `flow` was fully acknowledged.
    fn on_transfer_complete(&mut self, api: &mut SimApi<'_>, flow: FlowId) {
        let _ = (api, flow);
    }

    /// In-order data was delivered by the sink of `flow`. Only delivered for
    /// flows subscribed via [`SimApi::receive_flow`].
    fn on_receive(&mut self, api: &mut SimApi<'_>, flow: FlowId, chunks: &[AppChunk]) {
        let _ = (api, flow, chunks);
    }
}
