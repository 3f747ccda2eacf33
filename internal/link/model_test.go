// Package link models the link-layer interface of the Quarc NoC, which
// adopts the signals and handshaking of Xilinx's LocalLink protocol
// (paper §2.7, Fig 8).
//
// Signals are active-low, as in the spec; the Go model stores them as booleans
// with the meaning "asserted" (so SOF means SOF_N is driven low). A
// two-virtual-channel link is modelled: CH_STATUS_N[1:0] advertises which
// destination lanes can accept a frame, CH_TO_STORE selects the lane a
// transferred word belongs to.
//
// The cycle-accurate fabric does not drive these signals: internal/router
// keeps one credit counter per downstream lane on the sending side, the
// sender-side image of CH_STATUS_N. This package is test code only: the model
// and the differential oracle for those counters.
// TestCreditCountersMatchChannelStatus runs one link through a pair of
// switches and through Receiver side by side and requires, every cycle, that
// a status line is asserted exactly when the sender holds a credit for that
// lane, and that both hand over identical flit streams — so the simulator's
// shortcut is sound.
package link

import (
	"fmt"

	"quarc/internal/buffer"
	"quarc/internal/flit"
)

// NumVC is the number of virtual channels per physical link (paper §2.3.1:
// two lanes of input buffers).
const NumVC = 2

// Signals is the wire state of one LocalLink cycle, sender to receiver
// (plus the receiver-driven status lines).
type Signals struct {
	// Receiver-driven.
	ChStatus [NumVC]bool // true = lane can accept at least one flit (CH_STATUS_N low)
	DstRdy   bool        // DST_RDY_N asserted

	// Sender-driven.
	SrcRdy    bool // SRC_RDY_N asserted
	SOF       bool // start of frame
	EOF       bool // end of frame
	ChToStore int  // lane the current word targets
	Data      uint64
}

// Receiver is the receive side: per-lane input buffers plus the write
// controller of the paper's IPC (§2.3.1), which demultiplexes flits into the
// lane selected by CH_TO_STORE. The write controller FSM is idle until SOF,
// writes while the frame lasts, and returns to idle on EOF.
type Receiver struct {
	Lanes   [NumVC]*buffer.FIFO
	writing bool
	lane    int
	err     error
}

// NewReceiver returns a receiver with the given per-lane buffer depth.
func NewReceiver(depth int) *Receiver {
	r := &Receiver{}
	for i := range r.Lanes {
		r.Lanes[i] = buffer.New(depth)
	}
	return r
}

// Drive returns the receiver-driven signals for this cycle.
func (r *Receiver) Drive() (status [NumVC]bool, dstRdy bool) {
	for i, l := range r.Lanes {
		status[i] = !l.Full()
	}
	return status, true
}

// Clock consumes the sender-driven half of the signals. It returns true if a
// word was accepted this cycle.
func (r *Receiver) Clock(s Signals, f flit.Flit) bool {
	if !s.SrcRdy {
		return false
	}
	if s.ChToStore < 0 || s.ChToStore >= NumVC {
		r.err = fmt.Errorf("link: CH_TO_STORE %d out of range", s.ChToStore)
		return false
	}
	if s.SOF {
		if r.writing {
			r.err = fmt.Errorf("link: SOF inside a frame")
			return false
		}
		r.writing = true
		r.lane = s.ChToStore
	}
	if !r.writing {
		r.err = fmt.Errorf("link: data outside a frame")
		return false
	}
	if s.ChToStore != r.lane {
		// The paper's write controller keeps ch_to_store stable per frame;
		// flits of different VCs interleave only at frame granularity here.
		r.err = fmt.Errorf("link: lane changed mid-frame")
		return false
	}
	if !r.Lanes[r.lane].Push(f) {
		r.err = fmt.Errorf("link: write into full lane %d", r.lane)
		return false
	}
	if s.EOF {
		r.writing = false
	}
	return true
}

// Err returns the first protocol violation observed, if any.
func (r *Receiver) Err() error { return r.err }

// Sender implements the five-step channelised frame transfer of §2.7:
// wait for CH_STATUS, assert SRC_RDY_N, wait for DST_RDY_N, drive SOF and
// data with the channel number on CH_TO_STORE, end with EOF.
type Sender struct {
	frame   []flit.Flit
	pos     int
	lane    int
	started bool
}

// StartFrame arms the sender with a frame for the given lane. It panics if a
// frame is already in flight (hardware would never do this).
func (s *Sender) StartFrame(frame []flit.Flit, lane int) {
	if s.Busy() {
		panic("link: StartFrame while busy")
	}
	if len(frame) == 0 {
		panic("link: empty frame")
	}
	s.frame, s.pos, s.lane, s.started = frame, 0, lane, false
}

// Busy reports whether a frame transfer is in progress.
func (s *Sender) Busy() bool { return s.frame != nil }

// Drive produces the sender-driven signals for this cycle, honouring the
// receiver's status lines: the transfer only begins when the selected lane
// advertises space, and each word waits for space (back-pressure).
func (s *Sender) Drive(status [NumVC]bool, dstRdy bool) (Signals, flit.Flit, bool) {
	var sig Signals
	if s.frame == nil || !dstRdy || !status[s.lane] {
		return sig, flit.Flit{}, false
	}
	f := s.frame[s.pos]
	sig.SrcRdy = true
	sig.SOF = s.pos == 0
	sig.EOF = s.pos == len(s.frame)-1
	sig.ChToStore = s.lane
	if w, err := flit.EncodeWire(f); err == nil {
		sig.Data = w
	}
	return sig, f, true
}

// Advance moves to the next word after a successful transfer.
func (s *Sender) Advance() {
	s.pos++
	s.started = true
	if s.pos == len(s.frame) {
		s.frame = nil
	}
}

// Transfer runs sender and receiver to completion over a perfect wire and
// returns the number of cycles taken. drain, if non-nil, is called every
// cycle and may pop flits from the receiver lanes (modelling the downstream
// switch); this exercises back-pressure.
func Transfer(s *Sender, r *Receiver, maxCycles int, drain func(cycle int)) (int, error) {
	for c := 0; c < maxCycles; c++ {
		status, dstRdy := r.Drive()
		sig, f, ok := s.Drive(status, dstRdy)
		if ok {
			if !r.Clock(sig, f) {
				if r.err != nil {
					return c, r.err
				}
			} else {
				s.Advance()
			}
		}
		if drain != nil {
			drain(c)
		}
		if !s.Busy() {
			return c + 1, r.Err()
		}
	}
	return maxCycles, fmt.Errorf("link: transfer did not finish in %d cycles", maxCycles)
}
