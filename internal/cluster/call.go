package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
)

// ErrNoQuorum reports a Fanout that could not gather `need` acks.
var ErrNoQuorum = errors.New("cluster: quorum not reached")

// Call issues one logical call against the replica set: resolve, pick by
// P2C, and — when hedging is enabled and a second replica exists — issue a
// backup copy if the primary has not answered within the hedge delay. The
// first result wins and the loser is cancelled on the wire (TypeCancel),
// so the losing server abandons the work instead of completing it for
// nobody. Because a hedged call can execute on two servers, Call is for
// idempotent operations only; non-idempotent writes go through Fanout,
// which never hedges. Every copy is started with core.Client.Go and
// awaited on the calling goroutine; Call starts no goroutine.
//
// The ctx deadline rides every issued copy as a FlagBudget hint, so each
// replica's admission policy sees the caller's remaining budget no matter
// which server the balancer or the hedge chose.
func (c *Client) Call(ctx context.Context, proc uint16, argSize int, enc func(*marshal.Enc), dec func(*marshal.Dec)) error {
	c.calls.Add(1)
	reps, err := c.resolve(ctx)
	if err != nil {
		return err
	}
	primary := c.pick(reps, nil)
	if primary == nil {
		return ErrNoReplicas
	}
	l1, err := c.issue(ctx, primary, proc, argSize, enc)
	if err != nil {
		return err
	}
	c.issued.Add(1)
	if !c.cfg.Hedge.Enabled || len(reps) < 2 {
		return c.settle(l1, ctx, dec)
	}
	return c.hedged(ctx, reps, l1, proc, argSize, enc, dec)
}

// leg is one copy of a call in flight on one replica.
type leg struct {
	p     *core.Pending
	rep   *replica
	start time.Time
}

// issue starts one copy of the call on r with Go. A copy that fails to
// start is accounted against r and yields no leg.
func (c *Client) issue(ctx context.Context, r *replica, proc uint16, argSize int, enc func(*marshal.Enc)) (leg, error) {
	start := time.Now()
	p, err := r.cl.Go(ctx, proc, argSize, enc)
	if err != nil {
		c.account(r, start, err)
		return leg{}, err
	}
	return leg{p: p, rep: r, start: start}, nil
}

// settle awaits the leg with ctx and accounts the outcome.
func (c *Client) settle(l leg, ctx context.Context, dec func(*marshal.Dec)) error {
	err := l.p.Await(ctx, dec)
	c.account(l.rep, l.start, err)
	return err
}

// cancelled is a context that is already cancelled: awaiting a leg with it
// pushes the cancel notification (TypeCancel) onto the wire if the call
// had not already finished.
var cancelled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// abandon cancels the leg on the wire and reaps it.
func (c *Client) abandon(l leg) {
	_ = c.settle(l, cancelled, nil) // the outcome is accounted; nobody reads it
}

// hedged is the backup-request path: primary already issued, backup after
// the hedge delay, first result wins, loser cancelled immediately.
func (c *Client) hedged(ctx context.Context, reps []*replica, l1 leg, proc uint16, argSize int, enc func(*marshal.Enc), dec func(*marshal.Dec)) error {
	timer := time.NewTimer(c.hedgeDelay(l1.rep))
	defer timer.Stop()
	select {
	case <-l1.p.Done():
		return c.settle(l1, ctx, dec)
	case <-ctx.Done():
		c.abandon(l1)
		return ctx.Err()
	case <-timer.C:
	}

	backup := c.pick(reps, l1.rep)
	if backup == nil {
		return c.settle(l1, ctx, dec)
	}
	l2, err := c.issue(ctx, backup, proc, argSize, enc)
	if err != nil {
		return c.settle(l1, ctx, dec)
	}
	c.issued.Add(1)
	c.hedgesFired.Add(1)

	win, lose := l1, l2
	select {
	case <-l1.p.Done():
	case <-l2.p.Done():
		win, lose = l2, l1
	case <-ctx.Done():
		c.abandon(l1)
		c.abandon(l2)
		return ctx.Err()
	}

	werr := c.settle(win, ctx, dec)
	if werr == nil {
		if win.p == l2.p {
			c.hedgesWon.Add(1)
		}
		// Tell the loser's server the work is moot. The cancel packet only
		// goes out if the loser had not already finished — abandoning a
		// completed call is a no-op on the wire.
		c.hedgesCancelled.Add(1)
		c.abandon(lose)
		return nil
	}
	// The winner finished first but with an error; the loser is still in
	// flight and becomes the fallback.
	if c.settle(lose, ctx, dec) != nil {
		return werr
	}
	if lose.p == l2.p {
		c.hedgesWon.Add(1)
	}
	return nil
}

// Fanout issues the call to every replica and returns as soon as `need`
// replicas have replied without error (need ≤ 0 means a majority), with
// the number of such acks. Every copy is started with Go from the calling
// goroutine before any is awaited, so each replica's call is on the wire
// before a cancel can exist. Replies are collected on the caller; once the
// quorum is in, or ctx ends, the stragglers are cancelled on the wire and
// reaped before Fanout returns. Fanout starts no goroutine, never hedges
// and never retries, so a non-idempotent operation executes at most once
// per replica; combined with idempotent apply on the server (the KV
// store's versioned writes) this is the hedge-never-double-commits
// discipline.
//
// enc runs once per replica, one at a time on the caller; it must be safe
// to re-run (pure functions over the arguments are — the marshal closures
// the stubs generate qualify). dec, when non-nil, also runs on the caller,
// once per successful reply, and is told which replica it is reading. No
// dec runs after Fanout returns, so dec may update the caller's variables
// without a lock. An error from dec denies that reply its ack.
func (c *Client) Fanout(ctx context.Context, proc uint16, argSize int, enc func(*marshal.Enc), dec func(addr string, d *marshal.Dec) error, need int) (acks int, err error) {
	c.fanouts.Add(1)
	reps, err := c.resolve(ctx)
	if err != nil {
		return 0, err
	}
	if need <= 0 {
		need = len(reps)/2 + 1
	}
	if need > len(reps) {
		return 0, fmt.Errorf("%w: need %d acks from %d replicas", ErrNoQuorum, need, len(reps))
	}
	lastErr := ErrNoQuorum
	var buf [8]leg
	legs := buf[:0]
	defer func() {
		for _, l := range legs {
			c.abandon(l)
		}
	}()
	for _, r := range reps {
		l, err := c.issue(ctx, r, proc, argSize, enc)
		if err != nil {
			lastErr = err
			continue
		}
		legs = append(legs, l)
	}

	for acks < need && len(legs) > 0 {
		i, err := waitAny(ctx, legs)
		if err != nil {
			return acks, err
		}
		l := legs[i]
		legs[i] = legs[len(legs)-1]
		legs = legs[:len(legs)-1]
		var derr error
		err = c.settle(l, ctx, func(d *marshal.Dec) {
			if dec != nil {
				derr = dec(l.rep.addr, d)
			}
		})
		if err == nil {
			err = derr
		}
		if err == nil {
			acks++
		} else {
			lastErr = err
		}
	}
	if acks >= need {
		return acks, nil
	}
	if err := ctx.Err(); err != nil {
		return acks, err
	}
	return acks, fmt.Errorf("%w: %d/%d acks (need %d): %v", ErrNoQuorum, acks, len(reps), need, lastErr)
}

// waitAny blocks until one of legs completes, returning its index, or
// until ctx ends, returning ctx's error. One reflect.Select serves any
// number of legs.
func waitAny(ctx context.Context, legs []leg) (int, error) {
	var buf [9]reflect.SelectCase
	cases := append(buf[:0], reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())})
	for _, l := range legs {
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(l.p.Done())})
	}
	if i, _, _ := reflect.Select(cases); i > 0 {
		return i - 1, nil
	}
	return -1, ctx.Err()
}
