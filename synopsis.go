package probsyn

import "probsyn/internal/synopsis"

// Synopsis is the shared query surface of every synopsis family —
// histograms and wavelets both implement it — so callers can estimate
// frequencies, answer range sums, and persist a synopsis without caring
// which family produced it. See internal/synopsis for the interface and
// codec details.
type Synopsis = synopsis.Synopsis

// Frontier is a whole cost-vs-budget curve from one build: optimal costs
// and a Synopsis extractor for every budget 1 <= b <= Bmax, with each
// extracted synopsis byte-identical (through the codec) to an independent
// build at that budget. BuildSweep constructs one for either family.
type Frontier = synopsis.Frontier

// MarshalSynopsis serializes a synopsis in the versioned binary envelope
// ("PSYN" magic, type-tagged, CRC-checked payload).
func MarshalSynopsis(s Synopsis) ([]byte, error) { return synopsis.Marshal(s) }

// UnmarshalSynopsis deserializes a synopsis from the binary envelope
// MarshalSynopsis writes, returning the concrete family behind the
// Synopsis interface; any other input, JSON included, is an error.
func UnmarshalSynopsis(data []byte) (Synopsis, error) { return synopsis.Unmarshal(data) }
