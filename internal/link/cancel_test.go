package link_test

import (
	"context"
	"errors"
	"testing"

	"witag/internal/coding"
	"witag/internal/experiments"
	"witag/internal/link"
)

// roundLimitedCtx reports cancellation after a fixed number of Err calls,
// landing mid-frame to exercise the carrier's per-round check.
type roundLimitedCtx struct {
	context.Context
	calls int
}

func (c *roundLimitedCtx) Err() error {
	c.calls--
	if c.calls < 0 {
		return context.Canceled
	}
	return nil
}

// TestSendCancelsMidFrame drives every scheme's Send over the one frame
// carrier: one Err call passes (the first round), then the context reads
// as cancelled while the first frame still has rounds to go. Send must
// stop inside the frame, not finish it.
func TestSendCancelsMidFrame(t *testing.T) {
	for _, scheme := range experiments.CodingSchemes {
		t.Run(scheme, func(t *testing.T) {
			sys, env, err := experiments.LoSTestbed(2, 6)
			if err != nil {
				t.Fatal(err)
			}
			var xfer interface {
				Send(context.Context, []byte) (*link.Stats, error)
			}
			switch scheme {
			case "arq":
				cc, _ := link.NewCodingController(0)
				xfer = link.NewTransferer(sys, env, link.DefaultPolicy(), cc, 1)
			case "fountain":
				xfer = coding.NewFountainTransferer(sys, env, coding.DefaultFountainConfig(), 1)
			case "rs":
				xfer = coding.NewRSTransferer(sys, env, coding.DefaultRSConfig(), 1)
			}
			ctx := &roundLimitedCtx{Context: context.Background(), calls: 1}
			st, err := xfer.Send(ctx, make([]byte, 64))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st.Delivered {
				t.Fatal("cancelled transfer reported delivered")
			}
			if st.Rounds != 1 {
				t.Fatalf("sent %d rounds after cancellation mid-frame, want exactly 1", st.Rounds)
			}
		})
	}
}
