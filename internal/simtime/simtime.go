// Package simtime is the discrete-event simulation kernel behind the
// overlay runtime: VirtualClock, a deterministic clock whose scheduler
// runs on a hierarchical timer wheel. It is the only clock in the
// simulator: the overlay, the stream engine, the adaptation loop, the
// gossip ticker and the tracer all read and wait on one.
//
// Under the virtual clock, time is a number, not a resource. Timers and
// delayed callbacks become Events queued in exact (timestamp, schedule
// sequence) order; the scheduler pops and runs them one at a time,
// jumping the clock forward instantly. Events scheduled for the same
// virtual instant fire in FIFO schedule order, so a fixed seed yields a
// bit-identical event sequence on every run — the reproducibility the
// large-scale SBON evaluation scenarios rely on. A ten-second simulated
// measurement window completes in however long its events take to
// process, typically milliseconds. An Event is also the handle that
// cancels it, and code that fires over and over may own one and re-arm
// it (see Event), so a periodic or pooled schedule allocates nothing.
//
// # Who runs the events
//
// A clock has no goroutine of its own. Sleep and SleepOrDone schedule
// the caller's wake-up as an ordinary control event, then run the
// clock's events on the calling goroutine, in key order, until that
// wake-up comes up. Time therefore moves only while someone sleeps
// through it, and code between two sleeps runs while no event does: it
// may freely mutate simulation state (deploy circuits, register
// handlers, read metrics) without racing event callbacks.
//
//   - Node-domain events run on lanes, in windows without a lock per
//     event, and control events one at a time at the barriers between
//     windows (sharded.go). The default clock's one lane is drained by
//     the sleeper itself, and Now is exact inside its windows.
//   - Goroutines that sleep on one clock at the same time take turns: a
//     sleep holds the clock's driving mutex from start to wake-up, so
//     concurrent sleeps run one after another and their lengths add up.
//   - A goroutine that does not sleep may call AfterFunc, and Stop a
//     control event, at any time, also during another's sleep. It must
//     not touch node-domain events then: their lane owns them.
//   - Event callbacks (AfterFunc functions) run on the sleeping
//     goroutine, or on a lane worker of a sharded clock, and must not
//     block. They may schedule further events and close the channel a
//     SleepOrDone waits on. On one lane, node code may call AfterFunc.
//   - A callback must not sleep on its own clock. The sleeper running it
//     holds the driving mutex, so the inner sleep blocks forever (in a
//     test, Go's deadlock detector reports it). Nothing checks for this:
//     Go has no goroutine identity that would tell a re-entrant sleeper
//     from a second goroutine waiting its turn.
//   - A callback that panics unwinds through the sleep that ran it, so
//     the sleeper can recover the callback's own panic value.
package simtime
