// Package queueing implements the analytic performance models of §4 of the
// paper and of the [Kurose 83] baselines it compares against:
//
//   - An M/G/1 queue with impatient customers (customers balk when the
//     unfinished work exceeds the constraint K), whose loss probability is
//     the paper's equation 4.7.  This models the *controlled* window
//     protocol: policy elements (1), (3) and (4) make the distributed
//     queue FCFS with sender-side discard.
//   - The Beneš / Takács virtual-waiting-time distribution of the plain
//     M/G/1 queue, giving the loss (fraction of messages later than K) of
//     the uncontrolled FCFS window protocol.
//   - The waiting-time law of the non-preemptive LCFS M/G/1 queue via its
//     Laplace–Stieltjes transform and numerical inversion, giving the loss
//     of the uncontrolled LCFS window protocol.
//
// All three share the message service-time law: windowing (scheduling)
// overhead plus transmission time, built by internal/sched.
//
// The first two are power series over the convolution powers of one
// residual service density, and one engine (runSeries, series.go)
// evaluates both.  ProtocolModel.LossGrids is the multi-K solver: it
// feeds every constraint on a shared service law and quadrature grid from
// a single convolution series.  The per-K solvers — ImpatientMG1.Solve
// and MG1.LossFCFS, behind ProtocolModel.ControlledLoss and FCFSLoss —
// run one request through the same engine.
package queueing
