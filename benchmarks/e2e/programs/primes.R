sieve_run <- function(limit) {
  flags <- logical(limit)
  for (i in 1:limit) flags[[i]] <- TRUE
  count <- 0L
  i <- 2L
  while (i <= limit) {
    if (flags[[i]]) {
      count <- count + 1L
      j <- i + i
      while (j <= limit) {
        flags[[j]] <- FALSE
        j <- j + i
      }
    }
    i <- i + 1L
  }
  count
}
