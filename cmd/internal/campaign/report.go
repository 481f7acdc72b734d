package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"reskit/internal/engine"
	"reskit/internal/sim"
)

// Exit codes beyond 0 (success) and 1 (failure).
const (
	// ExitInterrupted ends a run a signal cut short: the workers drained
	// at a job boundary and the partial results were reported.
	ExitInterrupted = 3
	// ExitDegraded ends a -keep-going run that completed with jobs that
	// failed permanently: the results printed are partial.
	ExitDegraded = 4
)

var (
	// ErrInterrupted is the error of a run a signal cut short.
	ErrInterrupted = errors.New("interrupted by signal; partial results flushed")
	// ErrDegraded is the error of a keep-going run that left failed jobs.
	ErrDegraded = errors.New("completed degraded: some jobs failed permanently")
)

// Exit reports err on stderr as prog's and exits with its code; it
// returns when err is nil.
func Exit(prog string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, prog+":", err)
	switch {
	case errors.Is(err, ErrInterrupted):
		os.Exit(ExitInterrupted)
	case errors.Is(err, ErrDegraded):
		os.Exit(ExitDegraded)
	}
	os.Exit(1)
}

// Signals returns a context that SIGINT and SIGTERM cancel, so a run
// drains at the next job boundary, and a function to defer with the
// run's error: it stops catching the signals and turns a clean return
// after one into ErrInterrupted.
func Signals() (context.Context, func(*error)) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx, func(err *error) {
		if *err == nil && ctx.Err() != nil {
			*err = ErrInterrupted
		}
		stop()
	}
}

// StopMarker names what cut a run short: the -timeout deadline, a
// signal, or, while the context is still live, jobs that failed
// permanently under -keep-going.
func StopMarker(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return "stopped by -timeout"
	}
	if ctx.Err() == nil {
		return "degraded"
	}
	return "interrupted"
}

// HardFailure decides whether runErr aborts a grid run before its
// results print. Interruptions and keep-going degradations fall through
// to the partial report, and so does a completed run whose only defect
// is a failed final snapshot write. Anything else, such as a restored
// payload that does not parse or a job out of retries, is a failure.
func HardFailure(ctx context.Context, runErr error, res *engine.Result) error {
	if runErr == nil || ctx.Err() != nil || len(res.Failed) > 0 {
		return nil
	}
	var serr *engine.SnapshotError
	if errors.As(runErr, &serr) && res.Done() == res.Total() {
		return nil
	}
	return runErr
}

// Report ends a run on Out: its result table and its status block. Ctx
// is the run's context, Path its -checkpoint file ("" for none).
type Report struct {
	Ctx  context.Context
	Out  io.Writer
	Path string
}

// Table prints the results of a grid run from its job-ordered payloads.
// A plain campaign prints its mean aggregate and its wall time; a fault
// sweep prints its trade-off, one row per MTBF, and ends at the first
// row the run did not finish. A plain campaign cut short with no
// snapshot to name says after how many trials it stopped.
func (r Report) Table(g *sim.SweepGrid, payloads [][]byte, runErr error, elapsed time.Duration) error {
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	if g.MTBFs != nil {
		fmt.Fprintf(tw, "MTBF\tE(lost)\tE(util)\tE(res)\tE(crashes)\tcompletion\n")
		for ri, m := range g.MTBFs {
			agg, err := sim.MergeCampaignPayloads(g.Row(payloads, ri))
			if err != nil {
				return err
			}
			if agg.Trials < g.Trials {
				fmt.Fprintf(tw, "%g\t(%s after %d/%d trials)\n", m, StopMarker(r.Ctx), agg.Trials, g.Trials)
				break
			}
			fmt.Fprintf(tw, "%g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
				m, agg.LostWork, agg.Utilization, agg.Reservations, agg.Crashes, agg.CompletionRate)
		}
		return tw.Flush()
	}
	agg, err := sim.MergeCampaignPayloads(payloads)
	if err != nil {
		return err
	}
	MeanRows(tw, agg, g.Rows[0].Reservation.Faults.Active())
	fmt.Fprintf(tw, "completion rate\t%.4g\n", agg.CompletionRate)
	fmt.Fprintf(tw, "all completed\t%v\n", agg.CompletedAll)
	fmt.Fprintf(tw, "wall time\t%v (%.0f trials/s)\n",
		elapsed.Round(time.Millisecond), float64(agg.Trials)/elapsed.Seconds())
	if runErr != nil && r.Path == "" && r.Ctx.Err() != nil {
		fmt.Fprintf(tw, "interrupted\t%s after %d/%d trials\n", StopMarker(r.Ctx), agg.Trials, g.Trials)
	}
	return tw.Flush()
}

// MeanRows writes the mean rows of a campaign aggregate to a table
// writer, the fault tallies only when a fault model is active.
func MeanRows(tw io.Writer, agg sim.CampaignAggregate, faults bool) {
	fmt.Fprintf(tw, "mean reservations\t%.4g\n", agg.Reservations)
	fmt.Fprintf(tw, "mean utilization\t%.4g\n", agg.Utilization)
	fmt.Fprintf(tw, "mean lost work\t%.4g\n", agg.LostWork)
	if faults {
		fmt.Fprintf(tw, "mean ckpt faults\t%.4g\n", agg.CkptFaults)
		fmt.Fprintf(tw, "mean crashes\t%.4g\n", agg.Crashes)
		fmt.Fprintf(tw, "mean revoked res\t%.4g\n", agg.RevokedRes)
	}
}

// Finish prints the status block of a grid run and returns ErrDegraded
// for a keep-going run that left failed jobs (see finish).
func (r Report) Finish(runErr error, res *engine.Result) error {
	return r.finish(runErr, res.Done(), res.Total(), res.Failed)
}

// FinishStream prints the status block of a stream run, whose snapshot
// holds its commit frontier.
func (r Report) FinishStream(runErr error, sres *engine.StreamResult) error {
	return r.finish(runErr, sres.Committed, 0, nil)
}

// finish prints the status block every run shares: the warning when the
// final snapshot could not be written, where an interrupted run left its
// committed work, and the jobs a keep-going run gave up on. done counts
// the jobs (total > 0) or stream blocks (total == 0) this run holds
// committed. A snapshot is named only when it was written and holds
// them: a run cut short before its first commit saved nothing, and
// pointing at -resume would promise a file that does not exist.
func (r Report) finish(runErr error, done, total int, failed []*engine.JobError) error {
	if runErr == nil {
		return nil
	}
	var serr *engine.SnapshotError
	snapLost := errors.As(runErr, &serr)
	if snapLost {
		fmt.Fprintf(r.Out, "\nWARNING: run state is not durable: %v\n", serr.Err)
	}
	unit, what := "jobs", fmt.Sprintf("%d/%d jobs", done, total)
	if total == 0 {
		unit, what = "blocks", fmt.Sprintf("%d blocks", done)
	}
	if r.Ctx.Err() != nil && r.Path != "" {
		switch {
		case snapLost:
			fmt.Fprintf(r.Out, "interrupted: %s computed, but the snapshot at %s is stale or missing — resuming will recompute the lost work\n",
				what, r.Path)
		case done == 0:
			fmt.Fprintf(r.Out, "\ninterrupted: no %s committed, so nothing was saved to %s\n", unit, r.Path)
		case total == 0:
			fmt.Fprintf(r.Out, "\ninterrupted: frontier at block %d committed to %s; rerun with -resume to continue\n",
				done, r.Path)
		default:
			fmt.Fprintf(r.Out, "\ninterrupted: %s committed to %s; rerun with -resume to finish\n", what, r.Path)
		}
	}
	if len(failed) > 0 && r.Ctx.Err() == nil {
		fmt.Fprintf(r.Out, "\ndegraded: %d job(s) failed permanently:\n", len(failed))
		for _, je := range failed {
			fmt.Fprintf(r.Out, "  job %d (%s): %d attempt(s): %v\n", je.Job, je.Name, je.Attempts, je.Err)
		}
		if r.Path != "" && !snapLost {
			fmt.Fprintf(r.Out, "rerun with -resume to retry only the failed jobs\n")
		}
		return ErrDegraded
	}
	return nil
}
