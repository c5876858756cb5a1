package telemetry

import (
	"fmt"
	"io"
	"log/slog"
)

// Log flag vocabulary shared by the binaries: every cmd accepts
// -log-level and -log-format with these values, so operators configure
// slicenode and slicebench identically.
const (
	LogFormatText = "text"
	LogFormatJSON = "json"
)

// NewLogger builds a slog.Logger writing to w at the named level
// (debug|info|warn|error) in the named format (text|json). The
// defaults — info, text — apply when the strings are empty.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("telemetry: unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "", LogFormatText:
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case LogFormatJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text|json)", format)
	}
}

// LogFlagUsage strings, shared so the three binaries document the
// flags identically.
const (
	LogLevelUsage  = "log verbosity: debug|info|warn|error"
	LogFormatUsage = "log output format: text|json"
)
