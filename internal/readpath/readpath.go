// Package readpath defines the consistency contract for Rex's read path:
// the consistency levels a client can ask for, the session tokens that
// carry a client's observed frontier between requests, and the typed
// errors the admission machinery uses to route reads between primaries
// and secondaries.
//
// The package is deliberately tiny and dependency-light (trace + wire
// only) so every layer — core, server, shard, cluster, the CLIs — can
// share one vocabulary without import cycles.
//
// # Levels
//
//   - Linearizable: the read observes every write that completed before
//     it began, cluster-wide. Served only by the primary, under a quorum
//     read lease (zero consensus rounds) or, when the lease has lapsed,
//     behind a consensus-confirmed barrier.
//   - Session: read-your-writes + monotonic reads within one client
//     session. Served by any replica whose replayed frontier covers the
//     client's token; the response carries a refreshed token.
//   - Eventual: whatever the contacted replica has applied. No waiting.
//
// # Tokens
//
// A Token is the client's proof of what it has observed: the shard
// group, the membership epoch, the primary's applied instance count, and
// the scheduler's consistent-cut frontier at the moment the client's
// last request was served. Both coordinates matter: the instance count
// orders tokens cheaply across failovers (committed cuts only grow, but
// comparing vectors is O(threads)), while the cut is what a secondary's
// replayer can actually wait on.
package readpath

import (
	"errors"
	"fmt"

	"rex/internal/trace"
	"rex/internal/wire"
)

// Level selects the consistency contract for one read.
type Level uint8

const (
	// Linearizable reads observe every completed write, cluster-wide.
	Linearizable Level = iota
	// Session reads observe at least the client's own prior writes and
	// reads (read-your-writes, monotonic reads).
	Session
	// Eventual reads observe whatever the contacted replica has applied.
	Eventual
)

// String renders the level the way flags and wire docs spell it.
func (l Level) String() string {
	switch l {
	case Linearizable:
		return "linearizable"
	case Session:
		return "session"
	case Eventual:
		return "eventual"
	}
	return fmt.Sprintf("level-%d", uint8(l))
}

// Valid reports whether l is one of the defined levels.
func (l Level) Valid() bool { return l <= Eventual }

// ParseLevel parses the flag/wire spelling of a consistency level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "linearizable", "lin":
		return Linearizable, nil
	case "session":
		return Session, nil
	case "eventual":
		return Eventual, nil
	}
	return 0, fmt.Errorf("readpath: unknown consistency level %q (want linearizable|session|eventual)", s)
}

// Token is a client's observed frontier: everything a session read must
// wait for before it can be served. The zero Token means "no
// observations yet" and is satisfied by any replica.
type Token struct {
	Group   int       // shard group the frontier belongs to
	Epoch   uint64    // membership epoch when the token was minted
	Applied uint64    // consensus instances applied when minted
	Cut     trace.Cut // committed consistent-cut frontier when minted
}

// Zero reports whether the token carries no observations.
func (t Token) Zero() bool { return t.Applied == 0 && len(t.Cut) == 0 }

// Covers reports whether a frontier described by tok is at least as
// fresh as t — i.e. a replica holding tok's state may serve a session
// read carrying t. Cut lengths need not match: a token minted before a
// resync/rebuild can carry a cut sized for a different thread count, and
// trace.Cut.AtLeast treats the missing entries as zero on either side —
// trailing zeros are trivially covered, while a non-zero entry for a
// thread the covering frontier lacks correctly fails.
func (t Token) Covers(o Token) bool {
	return t.Applied >= o.Applied && t.Cut.AtLeast(o.Cut)
}

// Merge folds another token into t, keeping the freshest coordinates.
// Sessions merge the token from every response so interleaved reads and
// writes stay monotonic.
//
// Tokens from different membership epochs are never merged coordinate-
// wise: their cuts index different record incarnations (a new primary
// rebases thread clocks at its promotion cut), so a pointwise max would
// fabricate a frontier no replica ever reached — and could then never be
// covered, wedging the session. The newer epoch's Applied and Cut are
// kept wholesale; Applied is monotone across epochs, so no freshness is
// lost.
//
// A token with no observations takes o wholesale, group included: a
// fresh session adopts the group of the first token it sees. That holds
// only when o's epoch is not older: an empty token of a newer epoch still
// supersedes an older epoch's.
//
// A token is a value nobody writes, so the result shares its cut with t
// or o whenever one of them covers the other; only incomparable cuts get
// a fresh one.
func (t Token) Merge(o Token) Token {
	if t.Zero() && t.Epoch <= o.Epoch {
		return o
	}
	if o.Epoch != t.Epoch {
		if o.Epoch > t.Epoch {
			return o
		}
		return t
	}
	out := t
	if o.Applied > out.Applied {
		out.Applied = o.Applied
	}
	if len(o.Cut) > 0 {
		if out.Cut.AtLeast(o.Cut) {
			// keep ours
		} else if o.Cut.AtLeast(out.Cut) {
			out.Cut = o.Cut
		} else {
			// Incomparable within one epoch (tokens minted by replicas at
			// different replay progress): take the pointwise max so neither
			// side regresses.
			n := len(out.Cut)
			if len(o.Cut) > n {
				n = len(o.Cut)
			}
			max := make(trace.Cut, n)
			copy(max, out.Cut)
			for i, v := range o.Cut {
				if v > max[i] {
					max[i] = v
				}
			}
			out.Cut = max
		}
	}
	return out
}

// Encode appends the token's wire form.
func (t Token) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(t.Group))
	e.Uvarint(t.Epoch)
	e.Uvarint(t.Applied)
	e.Uvarint(uint64(len(t.Cut)))
	for _, v := range t.Cut {
		e.Uvarint(uint64(v))
	}
}

// Size returns the length of the token's wire form.
func (t Token) Size() int {
	n := wire.UvarintLen(uint64(t.Group)) + wire.UvarintLen(t.Epoch) +
		wire.UvarintLen(t.Applied) + wire.UvarintLen(uint64(len(t.Cut)))
	for _, v := range t.Cut {
		n += wire.UvarintLen(uint64(v))
	}
	return n
}

// EncodeBytes returns the token's wire form as a fresh slice.
func (t Token) EncodeBytes() []byte {
	e := wire.NewEncoder(make([]byte, 0, t.Size()))
	t.Encode(e)
	return e.Bytes()
}

// maxTokenThreads bounds the cut length a decoded token may claim, so a
// corrupt frame cannot ask for a giant allocation.
const maxTokenThreads = 1 << 16

// DecodeToken reads a token written by Encode, decoding its cut into
// dst's storage, grown only when too short (nil allocates): a reader that
// passes back the cut it last decoded allocates nothing.
func DecodeToken(d *wire.Decoder, dst trace.Cut) (Token, error) {
	var t Token
	t.Group = int(d.Uvarint())
	t.Epoch = d.Uvarint()
	t.Applied = d.Uvarint()
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return Token{}, err
	}
	if n > maxTokenThreads {
		return Token{}, wire.ErrCorrupt
	}
	if n > 0 {
		if uint64(cap(dst)) < n {
			dst = make(trace.Cut, n)
		}
		t.Cut = dst[:n]
		for i := range t.Cut {
			t.Cut[i] = int32(d.Uvarint())
		}
	}
	if err := d.Err(); err != nil {
		return Token{}, err
	}
	return t, nil
}

// DecodeTokenBytes decodes a token from b, its cut into dst's storage as
// DecodeToken does. An empty b is the zero token.
func DecodeTokenBytes(b []byte, dst trace.Cut) (Token, error) {
	if len(b) == 0 {
		return Token{}, nil
	}
	return DecodeToken(wire.NewDecoder(b), dst)
}

// SessionState accumulates tokens across a client's requests. It is not
// concurrency-safe; Rex clients are single-session by design. The session
// owns its token's cut and copies every observed frontier into it, so an
// observed token may share storage with its sender, and observing one
// allocates nothing once the cut has grown.
type SessionState struct {
	tok Token
}

// Token returns the session's current frontier. Its cut is the session's
// storage: it stays valid until the next Observe or Reset.
func (s *SessionState) Token() Token { return s.tok }

// Observe folds a response token into the session.
func (s *SessionState) Observe(t Token) {
	own := s.tok.Cut
	s.tok = s.tok.Merge(t)
	s.tok.Cut = append(own[:0], s.tok.Cut...)
}

// Reset clears the session (e.g. after switching groups).
func (s *SessionState) Reset() { s.tok = Token{} }

// Errors the read path uses to route between replicas. They cross the
// server protocol as distinguishable status strings, so keep the
// messages stable.
var (
	// ErrPrimaryOnly: the query was classified primary-only (non-idempotent
	// or effectful) and this replica is not the primary. Clients retry on
	// the primary at linearizable level.
	ErrPrimaryOnly = errors.New("readpath: query must run on the primary")

	// ErrFrontierWait: the replica's replayed frontier did not cover the
	// session token within the wait budget. Transient — clients try
	// another replica or fall back to the primary.
	ErrFrontierWait = errors.New("readpath: replica frontier behind session token")

	// ErrLeaseWait: the primary lost its lease and the consensus-confirmed
	// barrier did not commit within the wait budget (e.g. it was deposed).
	// Transient — clients retry, typically landing on the new primary.
	ErrLeaseWait = errors.New("readpath: read barrier not confirmed")
)
