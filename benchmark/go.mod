module github.com/mural-db/mural/benchmark

go 1.22

require github.com/mural-db/mural v0.0.0

replace github.com/mural-db/mural => ../
