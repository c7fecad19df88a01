storage_build <- function(depth, seedv) {
  count <- 0L
  stack <- list()
  top <- 0L
  node_depth <- depth
  while (node_depth > 0L) {
    arr <- numeric(4L)
    for (i in 1:4L) {
      seedv <- (seedv * 1309L + 13849L) %% 65536L
      arr[[i]] <- seedv
    }
    count <- count + 4L
    top <- top + 1L
    stack[[top]] <- arr
    node_depth <- node_depth - 1L
  }
  s <- 0
  for (i in 1:top) {
    a <- stack[[i]]
    for (j in 1:4L) s <- s + a[[j]]
  }
  s + count
}

storage_run <- function(reps) {
  acc <- 0
  for (r in 1:reps) acc <- acc + storage_build(40L, r)
  acc %% 1000000
}
