module github.com/gossipkit/slicing/benchmark

go 1.24

require github.com/gossipkit/slicing v0.0.0

replace github.com/gossipkit/slicing => ../
