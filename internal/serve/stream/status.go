package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/admission"
)

// StatusFor is the serving stack's one error→status policy: the code every
// front end answers a serving error with (HTTP status lines and RPS2 status
// frames use the same codes) and, for an overload shed, the Retry-After
// hint to advertise with it. Anything unrecognised — including
// serve.InputSizeError and a codec error — is the client's input: 400. A
// lost or draining backend connection is unavailability (503), never the
// client's fault. StatusError.Is below is the inverse, so an error keeps
// its identity across any number of hops (client → router → backend).
func StatusFor(err error) (code int, retryAfter time.Duration) {
	var oe *admission.OverloadError
	switch {
	case errors.As(err, &oe):
		return 429, oe.RetryAfter
	case errors.Is(err, serve.ErrNotFound):
		return 404, 0
	case errors.Is(err, serve.ErrClosed), errors.Is(err, ErrConnLost), errors.Is(err, ErrGoingAway):
		return 503, 0
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 408, 0
	default:
		return 400, 0
	}
}

// StatusError is a non-overload status frame surfaced as an error. Its
// Is method maps protocol codes back onto the serving sentinels, so
// errors.Is(err, serve.ErrNotFound) works across the wire exactly as it
// does in-process.
type StatusError struct {
	Code       int
	RetryAfter time.Duration
	Msg        string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("stream: status %d: %s", e.Code, e.Msg)
}

// Is maps status codes onto the in-process error identities — the inverse
// of StatusFor (429 never reaches here: the client surfaces it as a typed
// admission.OverloadError).
func (e *StatusError) Is(target error) bool {
	switch e.Code {
	case 404:
		return target == serve.ErrNotFound
	case 503:
		return target == serve.ErrClosed
	case 408:
		return target == context.DeadlineExceeded
	}
	return false
}
