// Package codec serializes the protocol messages of package proto into
// a compact, versioned binary wire format built on encoding/binary.
//
// Frame layout:
//
//	byte 0      version (currently 1)
//	byte 1      message type
//	bytes 2..   payload, message-specific
//
// A view entry encodes as a fixed 28-byte record: id uint64, age uint32,
// attr float64, r float64, all big-endian. Entry lists are prefixed with
// a uint16 count. Node IDs are 32-bit in memory (core.ID); an entry whose
// id exceeds core.MaxID fails decoding with core.ErrIDRange.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// Version is the current wire format version.
const Version = 1

// Wire format errors.
var (
	ErrVersion     = errors.New("codec: unsupported version")
	ErrUnknownType = errors.New("codec: unknown message type")
	ErrTruncated   = errors.New("codec: truncated frame")
	ErrTooMany     = errors.New("codec: too many view entries")
)

// Message type tags.
const (
	tagViewRequest byte = iota + 1
	tagViewReply
	tagSwapRequest
	tagSwapReply
	tagRankUpdate
)

const (
	entrySize  = 8 + 4 + 8 + 8
	maxEntries = math.MaxUint16
)

// Marshal encodes a protocol message into a frame.
func Marshal(msg proto.Message) ([]byte, error) {
	switch m := msg.(type) {
	case proto.ViewRequest:
		return marshalEntries(tagViewRequest, m.Entries)
	case proto.ViewReply:
		return marshalEntries(tagViewReply, m.Entries)
	case proto.SwapRequest:
		buf := make([]byte, 2+16)
		buf[0], buf[1] = Version, tagSwapRequest
		binary.BigEndian.PutUint64(buf[2:], math.Float64bits(m.R))
		binary.BigEndian.PutUint64(buf[10:], math.Float64bits(float64(m.Attr)))
		return buf, nil
	case proto.SwapReply:
		buf := make([]byte, 2+8)
		buf[0], buf[1] = Version, tagSwapReply
		binary.BigEndian.PutUint64(buf[2:], math.Float64bits(m.R))
		return buf, nil
	case proto.RankUpdate:
		buf := make([]byte, 2+8)
		buf[0], buf[1] = Version, tagRankUpdate
		binary.BigEndian.PutUint64(buf[2:], math.Float64bits(float64(m.Attr)))
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownType, msg)
	}
}

func marshalEntries(tag byte, entries []view.Entry) ([]byte, error) {
	if len(entries) > maxEntries {
		return nil, fmt.Errorf("%w: %d", ErrTooMany, len(entries))
	}
	buf := make([]byte, 2+2+len(entries)*entrySize)
	buf[0], buf[1] = Version, tag
	binary.BigEndian.PutUint16(buf[2:], uint16(len(entries)))
	off := 4
	for _, e := range entries {
		binary.BigEndian.PutUint64(buf[off:], uint64(e.ID))
		binary.BigEndian.PutUint32(buf[off+8:], e.Age)
		binary.BigEndian.PutUint64(buf[off+12:], math.Float64bits(float64(e.Attr)))
		binary.BigEndian.PutUint64(buf[off+20:], math.Float64bits(e.R))
		off += entrySize
	}
	return buf, nil
}

// Unmarshal decodes a frame back into a protocol message.
func Unmarshal(data []byte) (proto.Message, error) {
	if len(data) < 2 {
		return nil, ErrTruncated
	}
	if data[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, data[0])
	}
	payload := data[2:]
	switch data[1] {
	case tagViewRequest:
		entries, err := unmarshalEntries(payload)
		if err != nil {
			return nil, err
		}
		return proto.ViewRequest{Entries: entries}, nil
	case tagViewReply:
		entries, err := unmarshalEntries(payload)
		if err != nil {
			return nil, err
		}
		return proto.ViewReply{Entries: entries}, nil
	case tagSwapRequest:
		if len(payload) < 16 {
			return nil, ErrTruncated
		}
		return proto.SwapRequest{
			R:    math.Float64frombits(binary.BigEndian.Uint64(payload)),
			Attr: core.Attr(math.Float64frombits(binary.BigEndian.Uint64(payload[8:]))),
		}, nil
	case tagSwapReply:
		if len(payload) < 8 {
			return nil, ErrTruncated
		}
		return proto.SwapReply{R: math.Float64frombits(binary.BigEndian.Uint64(payload))}, nil
	case tagRankUpdate:
		if len(payload) < 8 {
			return nil, ErrTruncated
		}
		return proto.RankUpdate{Attr: core.Attr(math.Float64frombits(binary.BigEndian.Uint64(payload)))}, nil
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, data[1])
	}
}

func unmarshalEntries(payload []byte) ([]view.Entry, error) {
	if len(payload) < 2 {
		return nil, ErrTruncated
	}
	count := int(binary.BigEndian.Uint16(payload))
	payload = payload[2:]
	if len(payload) < count*entrySize {
		return nil, ErrTruncated
	}
	entries := make([]view.Entry, count)
	for i := 0; i < count; i++ {
		off := i * entrySize
		id, err := core.IDOf(binary.BigEndian.Uint64(payload[off:]))
		if err != nil {
			return nil, fmt.Errorf("codec: entry %d: %w", i, err)
		}
		entries[i] = view.Entry{
			ID:   id,
			Age:  binary.BigEndian.Uint32(payload[off+8:]),
			Attr: core.Attr(math.Float64frombits(binary.BigEndian.Uint64(payload[off+12:]))),
			R:    math.Float64frombits(binary.BigEndian.Uint64(payload[off+20:])),
		}
	}
	return entries, nil
}
