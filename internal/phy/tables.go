package phy

import (
	"sync"

	"witag/internal/dot11"
)

// Transmit and Receive share one read-only Layout per channel width, one
// Mapper per modulation and one Interleaver per (width, modulation). Each
// is built on first use, so a process that never runs the bit-true chain
// never builds any. Nothing may mutate a shared table; the exported
// constructors (LayoutFor, NewMapper, NewInterleaver) keep returning fresh
// values for callers that want their own.

// lazyTable builds its value once, on the first get.
type lazyTable[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (l *lazyTable[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.val, l.err = build() })
	return l.val, l.err
}

var (
	sharedWidths = [...]dot11.ChannelWidth{dot11.Width20, dot11.Width40, dot11.Width80}

	sharedLayouts      [len(sharedWidths)]lazyTable[*Layout]
	sharedMappers      [dot11.QAM256 + 1]lazyTable[*Mapper] // indexed by modulation
	sharedInterleavers [len(sharedWidths)][dot11.QAM256 + 1]lazyTable[*Interleaver]
)

// chainTables returns the shared layout, mapper and interleaver for a
// validated single-stream configuration.
func chainTables(cfg Config) (*Layout, *Mapper, *Interleaver, error) {
	w, mod := cfg.Width, cfg.MCS.Modulation
	wi := -1
	for i, sw := range sharedWidths {
		if sw == w {
			wi = i
		}
	}
	if wi < 0 {
		_, err := LayoutFor(w)
		return nil, nil, nil, err
	}
	if int(mod) >= len(sharedMappers) {
		_, err := NewMapper(mod)
		return nil, nil, nil, err
	}
	layout, err := sharedLayouts[wi].get(func() (*Layout, error) { return LayoutFor(w) })
	if err != nil {
		return nil, nil, nil, err
	}
	mapper, err := sharedMappers[mod].get(func() (*Mapper, error) { return NewMapper(mod) })
	if err != nil {
		return nil, nil, nil, err
	}
	il, err := sharedInterleavers[wi][mod].get(func() (*Interleaver, error) {
		return NewInterleaver(cfg.MCS.CodedBitsPerSymbol(w), mod.BitsPerSymbol(), interleaverColumns(w))
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return layout, mapper, il, nil
}
